// Package memsys composes the global-memory hierarchy: per-SM L1 data
// caches with MSHRs, an SM↔L2 interconnect, address-interleaved L2
// partitions with their own MSHRs, and one FR-FCFS DRAM channel per
// partition.
//
// The SM core talks to this package through three line-granular entry
// points — LoadLine, StoreLine, AtomicLine. The SM's LD/ST unit issues
// the coalesced transactions of one warp memory instruction at one line
// per cycle (so an uncoalesced 32-transaction access occupies the unit
// for 32 cycles, as on real hardware); when a line cannot be tracked
// (MSHRs full, store buffer full) the call returns false with no side
// effects and the unit retries it the next cycle — the back-pressure that
// produces pipeline stalls under memory-intensive phases.
package memsys

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/flight"
	"repro/internal/icnt"
	"repro/internal/stats"
	"repro/internal/timing"
)

// readReqBytes is the size of a read-request control packet.
const readReqBytes = 8

// retryDelay is the back-off before re-offering a refused request. Two call
// sites: parkL2 (a read refused by the L2 MSHR file — hot, ~97 % of
// memory_grid's L2 accesses, hence the stamp and the train) and enqueueDRAM
// (a full channel queue: ≈1.75 M plain events per compute_grid run, yet a
// train made compute_grid only 0–3 % faster — DESIGN.md §8.3).
const retryDelay = 8

// System is the global-memory hierarchy for one GPU.
type System struct {
	cfg    *config.Config
	wheel  *timing.Wheel
	net    *icnt.Network
	l1     []*cache.Cache
	l1mshr []*cache.MSHR
	l2     []*cache.Cache
	l2mshr []*cache.MSHR
	chans  []*dram.Channel

	storesOut []int // per-SM outstanding global stores
	// storeWake[sm], when set, is told each time one of sm's store-buffer
	// slots is released, so an SM whose LD/ST unit had a store refused can
	// sleep until then instead of re-offering it every cycle.
	storeWake []func()

	// dramQueued counts requests sitting in channel queues (enqueued but
	// not yet granted). Everything else in the hierarchy is event-driven
	// on the wheel; the DRAM queues are the only state that needs a
	// per-cycle Tick, so when this is zero Tick returns at once.
	dramQueued int
	// TickScans counts Tick calls that actually scanned the channels
	// (i.e. were not skipped as idle) — observable for tests.
	TickScans int64
	// L2Repolls counts re-offers of reads the L2 MSHR file refused, L2Probes
	// the l2Read calls (tag probe + MSHR lookup) — observable for tests.
	L2Repolls, L2Probes int64
	l2retry             *timing.Train // carries the re-offers

	// Free lists of pooled request carriers. Each carrier binds its event
	// callbacks once at first allocation, so the steady-state memory path
	// schedules wheel/network events without allocating closures. The
	// pools are per-System and all events of one System fire on one
	// goroutine, so no locking is needed.
	readFree  *readReq
	writeFree *writeReq

	// fl, when non-nil, records each transaction's lifecycle span for
	// the flight recorder. Every site that touches it — span creation in
	// the send helpers, stage stamps in the carrier callbacks and L2
	// handlers — runs on the clock-loop goroutine, so the trace needs no
	// locking.
	fl *flight.MemTrace
}

// SetFlight attaches (or, with nil, detaches) the flight recorder's
// memory-side trace.
func (s *System) SetFlight(t *flight.MemTrace) { s.fl = t }

// readReq carries one read (load/atomic) transaction through the
// L2-access → DRAM → response chain. All callback fields close over the
// carrier only, and are created once when the carrier is first built;
// pooled reuse re-points the data fields and keeps the callbacks.
type readReq struct {
	s      *System
	line   uint64
	sm     int
	p      int
	fillL1 bool
	dreq   dram.Request
	next   *readReq // free-list link
	stamp  uint64   // l2mshr[p].Stamp(line) at the last refusal
	// span, when non-nil, is this transaction's flight-recorder span;
	// the callbacks below stamp its stage timestamps as they fire.
	span *flight.MemSpan

	start     timing.Event // request packet arrived at the partition
	respond   timing.Event // L2 data ready: send response toward the SM
	deliver   timing.Event // response arrived: fill the L1 side, recycle
	dramDone  timing.Event // DRAM service done: fill the L2 side
	retryL2   timing.Car   // L2 MSHRs were full: re-offer the L2 access
	retryDRAM timing.Event // DRAM queue was full: replay the enqueue
}

// getRead takes a carrier off the free list, building one (and binding
// its callbacks) when the list is empty, and points it at a concrete
// transaction. The dreq literal also clears the previous use's Span; the
// span pointer itself is re-armed (or left nil) by traceRead.
func (s *System) getRead(sm int, line uint64, fillL1 bool) *readReq {
	r := s.readFree
	if r != nil {
		s.readFree = r.next
		r.next = nil
	} else {
		r = &readReq{s: s}
		r.start = func(cy int64) {
			// First partition arrival stamps the end of the request's
			// network leg; retryL2 replays keep the original arrival so
			// full-MSHR wait attributes to the L2/MSHR component.
			if r.span != nil {
				r.span.L2At = cy
			}
			r.s.l2Read(r)
		}
		r.respond = func(cy int64) {
			sys := r.s
			if r.span != nil {
				r.span.Done = cy
			}
			sys.net.Send(sys.net.PartPort(sys.cfg.NumSMs, r.p), sys.cfg.L1Line, r.deliver)
		}
		r.deliver = func(cy int64) {
			sys := r.s
			if r.span != nil {
				sp := r.span
				r.span = nil
				sp.Deliver = cy
				// The L1 MSHR entry this fill is about to clear tracks
				// every same-line request that merged behind this one —
				// their whole wait is MSHR-merge wait.
				if n := sys.l1mshr[r.sm].Waiters(r.line); n > 1 {
					sp.Merged = int32(n - 1)
				}
				sys.fl.Commit(sp)
			}
			if r.fillL1 {
				sys.l1[r.sm].Fill(r.line)
			}
			sys.l1mshr[r.sm].Fill(r.line, cy)
			sys.putRead(r)
		}
		r.dramDone = func(cy int64) {
			sys := r.s
			sys.l2[r.p].Fill(r.line)
			sys.l2mshr[r.p].Fill(r.line, cy)
		}
		r.retryL2.Bind(func(int64) {
			sys := r.s
			sys.L2Repolls++
			if !sys.l2mshr[r.p].StillRefused(r.line, r.stamp) {
				sys.l2Read(r)
				return
			}
			// Line still absent from L2 and from the full MSHR file: the
			// probe would miss and be refused again, so account just that.
			sys.l2[r.p].Accesses++
			sys.l2[r.p].Misses++
			sys.parkL2(r)
		})
		r.retryDRAM = func(int64) { r.s.enqueueDRAM(r.p, &r.dreq, r.retryDRAM) }
	}
	r.sm, r.line, r.fillL1 = sm, line, fillL1
	r.p = s.partition(line)
	r.span = nil
	r.dreq = dram.Request{Line: line, Done: r.dramDone}
	return r
}

// putRead recycles a completed carrier. Called from deliver, after which
// nothing in the hierarchy references it: the DRAM request (if any) was
// consumed, the L2 MSHR entry was cleared by Fill, and the network has
// delivered the response.
func (s *System) putRead(r *readReq) {
	r.next = s.readFree
	s.readFree = r
}

// writeReq carries one store transaction through interconnect → L2 →
// DRAM. Same pooling scheme as readReq.
type writeReq struct {
	s    *System
	line uint64
	sm   int
	p    int
	dreq dram.Request
	next *writeReq
	span *flight.MemSpan

	start     timing.Event // store packet arrived at the partition
	release   timing.Event // store complete: free the buffer slot, recycle
	retryDRAM timing.Event
}

// getWrite is getRead's store-side counterpart.
func (s *System) getWrite(sm int, line uint64) *writeReq {
	r := s.writeFree
	if r != nil {
		s.writeFree = r.next
		r.next = nil
	} else {
		r = &writeReq{s: s}
		r.start = func(cy int64) {
			if r.span != nil {
				r.span.L2At = cy
			}
			r.s.l2Write(r)
		}
		r.release = func(cy int64) {
			sys := r.s
			if r.span != nil {
				sp := r.span
				r.span = nil
				// Stores are fire-and-forget: the span ends when the
				// write completes downstream, with no response leg.
				sp.Done, sp.Deliver = cy, cy
				sys.fl.Commit(sp)
			}
			sys.storesOut[r.sm]--
			r.next = sys.writeFree
			sys.writeFree = r
			if fn := sys.storeWake[r.sm]; fn != nil {
				fn()
			}
		}
		r.retryDRAM = func(int64) { r.s.enqueueDRAM(r.p, &r.dreq, r.retryDRAM) }
	}
	r.sm, r.line = sm, line
	r.p = s.partition(line)
	r.span = nil
	r.dreq = dram.Request{Line: line, Write: true, Done: r.release}
	return r
}

// New builds the hierarchy described by cfg, scheduling all latencies on
// wheel. cfg must already be validated.
func New(cfg *config.Config, wheel *timing.Wheel) *System {
	s := &System{
		cfg:       cfg,
		wheel:     wheel,
		net:       icnt.New(wheel, cfg.NumSMs, cfg.L2Partitions, int64(cfg.IcntLatency), cfg.IcntBytesPerCycle),
		l1:        make([]*cache.Cache, cfg.NumSMs),
		l1mshr:    make([]*cache.MSHR, cfg.NumSMs),
		l2:        make([]*cache.Cache, cfg.L2Partitions),
		l2mshr:    make([]*cache.MSHR, cfg.L2Partitions),
		chans:     make([]*dram.Channel, cfg.L2Partitions),
		storesOut: make([]int, cfg.NumSMs),
		storeWake: make([]func(), cfg.NumSMs),
		l2retry:   timing.NewTrain(wheel),
	}
	for i := range s.l1 {
		s.l1[i] = cache.MustNew(cfg.L1Size, cfg.L1Assoc, cfg.L1Line)
		s.l1mshr[i] = cache.NewMSHR(cfg.L1MSHRs, cfg.L1Merges)
	}
	partSize := cfg.L2Size / cfg.L2Partitions
	for p := range s.l2 {
		s.l2[p] = cache.MustNew(partSize, cfg.L2Assoc, cfg.L1Line)
		// L2 MSHRs: give each partition the same tracking capacity as one
		// SM's L1, with generous merging (requests from all 14 SMs can
		// collapse onto hot lines).
		s.l2mshr[p] = cache.NewMSHR(cfg.L1MSHRs, cfg.NumSMs*cfg.L1Merges)
		s.chans[p] = dram.NewChannel(cfg.DRAMBanksPerChannel, uint64(cfg.DRAMRowBytes),
			int64(cfg.DRAMRowHit), int64(cfg.DRAMRowMiss), cfg.DRAMQueueDepth)
	}
	return s
}

// partition maps a line address to its L2 partition (line interleaving).
func (s *System) partition(line uint64) int {
	return int((line / uint64(s.cfg.L1Line)) % uint64(s.cfg.L2Partitions))
}

// Tick performs one DRAM arbitration step per channel. Call once per core
// cycle after the timing wheel has advanced to that cycle. With no
// requests queued at any channel it returns immediately without touching
// the channels.
func (s *System) Tick(cycle int64) {
	if s.dramQueued == 0 {
		return
	}
	s.TickScans++
	for _, ch := range s.chans {
		if r, doneAt := ch.Tick(cycle); r != nil {
			s.dramQueued--
			if r.Done != nil {
				s.wheel.Schedule(doneAt, r.Done)
			}
		}
	}
}

// LoadLine issues one load transaction from SM sm for the line-aligned
// address line. It returns false without side effects when the L1 MSHRs
// cannot track the miss this cycle; when accepted, done fires once, at
// the cycle the line's data is available in the SM.
func (s *System) LoadLine(sm int, line uint64, done func(cycle int64)) bool {
	if s.l1[sm].Access(line) {
		s.wheel.ScheduleAfter(int64(s.cfg.L1HitLatency), done)
		return true
	}
	switch s.l1mshr[sm].Add(line, done) {
	case cache.Allocated:
		s.sendRead(sm, line, true)
		return true
	case cache.Merged:
		// The in-flight fill will wake us; no downstream traffic.
		return true
	default: // Refused: MSHRs full, retry later.
		// Undo the miss that Access counted: hardware re-probes on every
		// replay too, but counting each attempt would inflate the miss
		// rate — and a refusal must stay free of side effects, so that
		// the SM may skip the replays it knows will be refused.
		s.l1[sm].Accesses--
		s.l1[sm].Misses--
		return false
	}
}

// AtomicLine issues one global-atomic transaction. Atomics bypass the L1
// (no lookup, no fill) and are resolved at the L2 partition; timing-wise
// the line behaves like an L1 miss whose response does not allocate in
// L1. Tracking shares the L1 MSHR file, bounding outstanding requests.
func (s *System) AtomicLine(sm int, line uint64, done func(cycle int64)) bool {
	switch s.l1mshr[sm].Add(line, done) {
	case cache.Allocated:
		s.sendRead(sm, line, false)
		return true
	case cache.Merged:
		return true
	default:
		return false
	}
}

// StoreLine issues one store transaction. Stores are write-through
// no-allocate with write-evict at L1 (GPGPU-Sim's Fermi global-store
// policy): the L1 copy is invalidated and a line-sized data packet
// contends for interconnect bandwidth. The warp does not wait, but the
// per-SM store buffer bounds outstanding store lines; a full buffer
// refuses the transaction (replay → pipeline stall).
func (s *System) StoreLine(sm int, line uint64) bool {
	if s.storesOut[sm] >= s.cfg.StoreBufferPerSM {
		return false
	}
	s.storesOut[sm]++
	s.l1[sm].Invalidate(line)
	s.sendWrite(sm, line)
	return true
}

// traceRead starts a flight span for an accepted read transaction (no-op
// without a recorder). Called after getRead, before the network
// injection, so Inject and the port backlog reflect the injection
// decision point.
func (s *System) traceRead(r *readReq) {
	if s.fl == nil {
		return
	}
	kind := flight.SpanLoad
	if !r.fillL1 {
		kind = flight.SpanAtomic
	}
	r.span = s.fl.Start(kind, r.sm, r.p, r.line, s.wheel.Now(), s.net.Occupancy(s.net.SMPort(r.sm)))
	r.dreq.Span = r.span
}

// traceWrite is traceRead's store-side counterpart.
func (s *System) traceWrite(r *writeReq) {
	if s.fl == nil {
		return
	}
	r.span = s.fl.Start(flight.SpanStore, r.sm, r.p, r.line, s.wheel.Now(), s.net.Occupancy(s.net.SMPort(r.sm)))
	r.dreq.Span = r.span
}

// sendRead injects a read-request packet; fillL1 marks whether the
// response should allocate in the SM's L1.
func (s *System) sendRead(sm int, line uint64, fillL1 bool) {
	r := s.getRead(sm, line, fillL1)
	s.traceRead(r)
	s.net.Send(s.net.SMPort(sm), readReqBytes, r.start)
}

// sendWrite injects a line-sized store data packet.
func (s *System) sendWrite(sm int, line uint64) {
	r := s.getWrite(sm, line)
	s.traceWrite(r)
	s.net.Send(s.net.SMPort(sm), s.cfg.L1Line, r.start)
}

// l2Read handles a read request arriving at line's partition.
func (s *System) l2Read(r *readReq) {
	s.L2Probes++
	if s.l2[r.p].Access(r.line) {
		if r.span != nil {
			r.span.L2Hit = true
		}
		s.wheel.ScheduleAfter(int64(s.cfg.L2HitLatency), r.respond)
		return
	}
	switch s.l2mshr[r.p].Add(r.line, r.respond) {
	case cache.Allocated:
		s.enqueueDRAM(r.p, &r.dreq, r.retryDRAM)
	case cache.Merged:
		if r.span != nil {
			r.span.L2Merged = true
		}
	case cache.Refused:
		// L2 MSHRs full: re-offer the whole L2 access later. The L1-side
		// MSHR entry stays allocated meanwhile, so the SM sees a longer miss.
		r.stamp = s.l2mshr[r.p].Stamp(r.line)
		s.parkL2(r)
	}
}

// parkL2 books r's next re-offer at the bucket position its own wheel event
// would take: that order decides which re-poll wins a freed MSHR entry.
func (s *System) parkL2(r *readReq) {
	if r.span != nil {
		r.span.Retries++
	}
	s.l2retry.Park(s.wheel.Now()+retryDelay, &r.retryL2)
}

// l2Write handles a store arriving at line's partition: L2 write hit
// updates in place; a miss forwards to DRAM without allocating.
func (s *System) l2Write(r *writeReq) {
	if s.l2[r.p].Access(r.line) {
		if r.span != nil {
			r.span.L2Hit = true
		}
		s.wheel.ScheduleAfter(int64(s.cfg.L2HitLatency), r.release)
		return
	}
	s.enqueueDRAM(r.p, &r.dreq, r.retryDRAM)
}

// enqueueDRAM offers a request to partition p's channel, retrying on a
// full queue via the caller's pre-bound retry event.
func (s *System) enqueueDRAM(p int, r *dram.Request, retry timing.Event) {
	if !s.chans[p].Enqueue(r) {
		if r.Span != nil {
			r.Span.Retries++
		}
		s.wheel.ScheduleAfter(retryDelay, retry)
		return
	}
	if r.Span != nil {
		r.Span.DRAMq = s.wheel.Now()
	}
	s.dramQueued++
}

// OnStoreRelease registers fn to run, on the goroutine that advances the
// timing wheel, each time one of SM sm's store-buffer slots is released.
func (s *System) OnStoreRelease(sm int, fn func()) { s.storeWake[sm] = fn }

// OutstandingStores returns SM sm's store-buffer occupancy (for tests).
func (s *System) OutstandingStores(sm int) int { return s.storesOut[sm] }

// Stats sums the hierarchy's counters.
func (s *System) Stats() stats.MemStats {
	var m stats.MemStats
	for _, c := range s.l1 {
		m.L1Accesses += c.Accesses
		m.L1Misses += c.Misses
	}
	for _, c := range s.l2 {
		m.L2Accesses += c.Accesses
		m.L2Misses += c.Misses
	}
	for _, ch := range s.chans {
		m.DRAMReqs += ch.Reqs
		m.DRAMRowHits += ch.RowHits
	}
	return m
}

// Drained reports whether no memory activity remains (for watchdogs; the
// timing wheel's pending count covers in-flight latencies).
func (s *System) Drained(cycle int64) bool {
	for _, ch := range s.chans {
		if ch.Busy(cycle) {
			return false
		}
	}
	for _, m := range s.l1mshr {
		if m.InFlight() > 0 {
			return false
		}
	}
	for _, m := range s.l2mshr {
		if m.InFlight() > 0 {
			return false
		}
	}
	for _, n := range s.storesOut {
		if n > 0 {
			return false
		}
	}
	return true
}
