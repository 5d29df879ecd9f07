// Package flight is the simulation flight recorder: an opt-in,
// ring-buffered capture of one run's warp-granular execution story —
// per-warp progress timelines, scheduler-decision events, and
// memory-request lifecycle spans with latency attribution across the
// hierarchy (interconnect, L2/MSHR, DRAM queueing and service).
//
// The recorder follows the heartbeat discipline (internal/gpu): when no
// recorder is attached every instrumented site pays one predictable
// nil-check branch and nothing else; an attached recorder only ever
// *reads* simulation state and writes into its own buffers, so results
// are byte-identical with or without it (pinned by
// TestFlightRecorderDoesNotAlterResults). The gpu.Options kill switch
// carries `json:"-"` so result-cache keys are unaffected.
//
// Concurrency: one simulation runs on one goroutine (DESIGN.md §12), so
// neither the per-SM SMTrace rings nor the MemTrace need locking; a
// Recorder must not be shared between concurrent runs.
//
// Ring semantics are true flight-recorder semantics: when a ring fills,
// the oldest record is overwritten and counted as dropped, so a capture
// always holds the most recent window of the run. Every warp and every
// accepted memory transaction is recorded: a capture is never a sample.
package flight

import (
	"repro/internal/stats"
)

// The capture's fixed bounds.
const (
	// ringEvents is the per-SM event ring capacity.
	ringEvents = 1 << 14
	// ringSpans is the committed memory-span ring capacity.
	ringSpans = 1 << 15
	// progressEvery is how many issues of a warp one progress point
	// stands for.
	progressEvery = 32
	// topN is how many least-progressed warps the report lists.
	topN = 10
)

// Options is empty: a recorder has nothing to set.
//
// Deprecated: call New with no argument. The type survives only because
// bench/ calls New(flight.Options{}).
type Options struct{}

// EventKind enumerates warp/scheduler event types.
type EventKind uint8

const (
	// EvWarpProgress is a progress checkpoint of a warp:
	// A = Warp.Progress (the paper's metric), B = PC.
	EvWarpProgress EventKind = iota
	// EvWarpStall marks a warp transitioning to blocked: A = the cycle
	// its registers become ready, or -1 when it waits on a pending load
	// (resolution is event-driven).
	EvWarpStall
	// EvWarpBarrier marks a warp arriving at its TB barrier.
	EvWarpBarrier
	// EvWarpFinish marks a warp exiting: A = final Progress,
	// B = SpawnCycle (lifetime = Cycle - B). Always recorded.
	EvWarpFinish
	// EvSlotState marks a scheduler slot's per-cycle outcome changing:
	// A = new outcome (0 issued, 1 pipeline, 2 scoreboard, 3 idle),
	// B = previous outcome.
	EvSlotState
	// EvSchedResort marks a cached priority order being rebuilt (PRO
	// re-sorts, generation bumps): A = the new order generation.
	EvSchedResort
	// EvSchedPick marks a scheduler slot issuing from a different warp
	// than its previous issue (CAWS critical-warp picks, leader
	// changes): Warp = the new leader's slot, A = the previous one (-1
	// on the slot's first issue).
	EvSchedPick
	// EvTBStart / EvTBFinish mark thread-block assignment and
	// retirement; A = TB progress on finish.
	EvTBStart
	EvTBFinish
)

// String names an event kind for exports.
func (k EventKind) String() string {
	switch k {
	case EvWarpProgress:
		return "warp_progress"
	case EvWarpStall:
		return "warp_stall"
	case EvWarpBarrier:
		return "warp_barrier"
	case EvWarpFinish:
		return "warp_finish"
	case EvSlotState:
		return "slot_state"
	case EvSchedResort:
		return "sched_resort"
	case EvSchedPick:
		return "sched_pick"
	case EvTBStart:
		return "tb_start"
	case EvTBFinish:
		return "tb_finish"
	}
	return "unknown"
}

// Event is one recorded warp/scheduler event. Warp is the SM warp slot
// (-1 when not warp-scoped), Slot the scheduler slot (-1 likewise), TB
// the global thread-block id (-1 likewise); A and B are kind-specific.
type Event struct {
	Cycle int64
	A, B  int64
	TB    int32
	Warp  int32
	SM    int16
	Slot  int16
	Kind  EventKind
}

// Recorder captures one simulation run. Build with New, attach via
// gpu.Options.Flight, then read the results with Report or Capture. A
// Recorder records exactly one run; attach a fresh one per run.
type Recorder struct {
	// Meta, filled by FinishRun.
	kernel    string
	scheduler string
	cycles    int64
	stalls    stats.StallBreakdown
	finished  bool

	sms []*SMTrace
	mem *MemTrace
}

// New builds a recorder. It takes no Options; the variadic parameter
// only keeps New(flight.Options{}) compiling.
func New(...Options) *Recorder {
	return &Recorder{mem: &MemTrace{}}
}

// Start sizes the per-SM traces. Called by the GPU once per run, before
// the first cycle; calling it twice is a misuse of the one-run contract
// and panics.
func (r *Recorder) Start(numSMs int) {
	if r.sms != nil {
		panic("flight: Recorder attached to a second run")
	}
	r.sms = make([]*SMTrace, numSMs)
	for i := range r.sms {
		r.sms[i] = &SMTrace{id: int16(i)}
	}
}

// SM returns SM i's trace (the engine's per-SM hook target).
func (r *Recorder) SM(i int) *SMTrace { return r.sms[i] }

// Mem returns the memory-side trace (the memsys hook target).
func (r *Recorder) Mem() *MemTrace { return r.mem }

// FinishRun stamps the run's identity and aggregate stall taxonomy onto
// the capture. Called by the GPU after the cycle loop completes.
func (r *Recorder) FinishRun(kernel, scheduler string, cycles int64, stalls stats.StallBreakdown) {
	r.kernel, r.scheduler, r.cycles, r.stalls = kernel, scheduler, cycles, stalls
	r.finished = true
}

// Recorded reports whether FinishRun ran — false means the run never
// executed (e.g. it was served from a result cache) or failed.
func (r *Recorder) Recorded() bool { return r.finished }

// eventCounts sums captured/dropped events over the per-SM rings.
func (r *Recorder) eventCounts() (captured, dropped int64) {
	for _, t := range r.sms {
		captured += t.count
		dropped += t.overwritten
	}
	return captured, dropped
}

// SMTrace is one SM's event ring, written only by the goroutine that
// runs the simulation — no synchronization.
type SMTrace struct {
	id int16

	ring        []Event
	head        int
	count       int64 // total pushed (retained + overwritten)
	overwritten int64

	// finished holds every exited warp's final standing, whatever the
	// ring still holds: the least-progressed table reads it.
	finished []WarpStat

	// Per-warp-slot issue counters for progress points, and per-slot
	// last-seen state for transition events. Sized by Size.
	issueCnt    []int32
	lastStall   []int64
	lastOutcome []int8
	lastPick    []int32
}

// stallUnset marks "no stall recorded since the last issue" in
// lastStall (readyAt values are non-negative or the -1 pending-load
// sentinel, so this cannot collide).
const stallUnset = int64(-1) << 62

// Size allocates the per-slot state; called by the engine when the
// trace is attached to an SM (warpSlots resident warp slots, schedSlots
// scheduler slots).
func (t *SMTrace) Size(warpSlots, schedSlots int) {
	t.ring = make([]Event, 0, ringEvents)
	t.issueCnt = make([]int32, warpSlots)
	t.lastStall = make([]int64, warpSlots)
	t.lastOutcome = make([]int8, schedSlots)
	t.lastPick = make([]int32, schedSlots)
	for i := range t.lastStall {
		t.lastStall[i] = stallUnset
	}
	for i := range t.lastOutcome {
		t.lastOutcome[i] = -1
	}
	for i := range t.lastPick {
		t.lastPick[i] = -1
	}
}

// push appends to the ring, overwriting the oldest event when full.
func (t *SMTrace) push(e Event) {
	e.SM = t.id
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.head] = e
		t.head++
		if t.head == len(t.ring) {
			t.head = 0
		}
		t.overwritten++
	}
	t.count++
}

// events returns the retained events in chronological (push) order.
func (t *SMTrace) events() []Event {
	if t.overwritten == 0 {
		return t.ring
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// OnIssue records an issue commit: a leader-change event when the
// scheduler slot switched warps, and a progress checkpoint every
// progressEvery issues of the warp.
func (t *SMTrace) OnIssue(cycle int64, schedSlot, warpSlot int, tb int, progress, pc int64) {
	if prev := t.lastPick[schedSlot]; prev != int32(warpSlot) {
		t.lastPick[schedSlot] = int32(warpSlot)
		t.push(Event{Cycle: cycle, Kind: EvSchedPick, Slot: int16(schedSlot),
			Warp: int32(warpSlot), TB: int32(tb), A: int64(prev)})
	}
	t.lastStall[warpSlot] = stallUnset
	t.issueCnt[warpSlot]++
	if (t.issueCnt[warpSlot]-1)%progressEvery != 0 {
		return
	}
	t.push(Event{Cycle: cycle, Kind: EvWarpProgress, Slot: int16(schedSlot),
		Warp: int32(warpSlot), TB: int32(tb), A: progress, B: pc})
}

// OnWarpStall records a warp entering a blocked state; readyAt
// is the warp's gate cycle (math.MaxInt64 — a pending load — maps to
// -1). Without cycle skipping the engine re-classifies a blocked warp
// every cycle, so repeats of the same cause since the warp's last issue
// are deduplicated here rather than flooding the ring.
func (t *SMTrace) OnWarpStall(cycle int64, warpSlot, tb int, readyAt int64) {
	a := readyAt
	if a == int64(1<<63-1) {
		a = -1
	}
	if t.lastStall[warpSlot] == a {
		return
	}
	t.lastStall[warpSlot] = a
	t.push(Event{Cycle: cycle, Kind: EvWarpStall, Slot: -1,
		Warp: int32(warpSlot), TB: int32(tb), A: a})
}

// OnBarrier records a warp arriving at its TB barrier.
func (t *SMTrace) OnBarrier(cycle int64, warpSlot, tb int) {
	t.push(Event{Cycle: cycle, Kind: EvWarpBarrier, Slot: -1,
		Warp: int32(warpSlot), TB: int32(tb)})
}

// OnWarpFinish records a warp exiting, and keeps its final standing
// for the least-progressed report.
func (t *SMTrace) OnWarpFinish(cycle int64, warpSlot, tb int, progress, spawn int64) {
	t.push(Event{Cycle: cycle, Kind: EvWarpFinish, Slot: -1,
		Warp: int32(warpSlot), TB: int32(tb), A: progress, B: spawn})
	t.finished = append(t.finished, WarpStat{SM: int(t.id), Warp: warpSlot, TB: tb,
		Progress: progress, Lifetime: cycle - spawn})
}

// OnSlotOutcome records a scheduler slot's outcome class changing.
func (t *SMTrace) OnSlotOutcome(cycle int64, slot int, outcome uint8) {
	if t.lastOutcome[slot] == int8(outcome) {
		return
	}
	prev := t.lastOutcome[slot]
	t.lastOutcome[slot] = int8(outcome)
	t.push(Event{Cycle: cycle, Kind: EvSlotState, Slot: int16(slot),
		Warp: -1, TB: -1, A: int64(outcome), B: int64(prev)})
}

// OnResort records a cached priority order being rebuilt.
func (t *SMTrace) OnResort(cycle int64, slot int, gen uint64) {
	t.push(Event{Cycle: cycle, Kind: EvSchedResort, Slot: int16(slot),
		Warp: -1, TB: -1, A: int64(gen)})
}

// OnTBStart / OnTBFinish record thread-block assignment and retirement.
func (t *SMTrace) OnTBStart(cycle int64, tb, tbSlot int) {
	t.push(Event{Cycle: cycle, Kind: EvTBStart, Slot: -1, Warp: -1,
		TB: int32(tb), A: int64(tbSlot)})
}

func (t *SMTrace) OnTBFinish(cycle int64, tb int, progress int64) {
	t.push(Event{Cycle: cycle, Kind: EvTBFinish, Slot: -1, Warp: -1,
		TB: int32(tb), A: progress})
}

// SpanKind enumerates memory transaction kinds.
type SpanKind uint8

const (
	SpanLoad SpanKind = iota
	SpanAtomic
	SpanStore
)

// String names a span kind for exports.
func (k SpanKind) String() string {
	switch k {
	case SpanLoad:
		return "load"
	case SpanAtomic:
		return "atomic"
	case SpanStore:
		return "store"
	}
	return "unknown"
}

// MemSpan is one memory transaction's lifecycle, timestamps threaded
// through the pooled memsys carriers. Cycle fields are zero until their
// stage is reached (simulated cycles start at 1, so zero is a safe
// sentinel). The latency attribution derived from a span extends the
// Idle/Scoreboard/Pipeline stall taxonomy into memory-side causes; see
// Components.
type MemSpan struct {
	// Line is the line-aligned address; SM the requesting SM; Part the
	// L2 partition / DRAM channel.
	Line uint64
	SM   int32
	Part int32
	Kind SpanKind

	// L2Hit: served from the L2 partition. L2Merged: joined another
	// request's in-flight L2 MSHR entry. RowHit: the DRAM grant hit its
	// bank's open row.
	L2Hit    bool
	L2Merged bool
	RowHit   bool

	// Inject: request packet entered the interconnect. L2At: arrived at
	// the partition. DRAMq: entered the channel queue. Grant: bank
	// grant. Done: data ready at the partition (L2 hit service or DRAM
	// completion). Deliver: response delivered at the SM (== Done for
	// stores, which are fire-and-forget).
	Inject  int64
	L2At    int64
	DRAMq   int64
	Grant   int64
	Done    int64
	Deliver int64

	// ICNTQueue is the injection-port backlog (cycles) observed when the
	// request entered the interconnect — the icnt-queueing share of the
	// Inject→L2At leg.
	ICNTQueue int64
	// Retries counts replays against full downstream queues (L2 MSHRs,
	// DRAM queue).
	Retries int32
	// Merged counts same-line L1-side requests that merged onto this
	// fill's MSHR entry and were woken by its delivery (MSHR-merge wait
	// attribution: those requests waited without downstream traffic).
	Merged int32
}

// Components splits the span's total latency (Deliver-Inject) into
// additive memory-side causes:
//
//	icnt_req:     interconnect request leg (port queueing + serialization
//	              + traversal)
//	l2_service:   L2 hit service time
//	l2_mshr:      wait at the partition for an in-flight fill (merge
//	              wait) or for DRAM admission (full-queue retries)
//	dram_queue:   channel queue wait (enqueue → bank grant)
//	dram_service: bank service (grant → data)
//	icnt_resp:    interconnect response leg
//
// The six terms always sum to Total exactly.
func (sp *MemSpan) Components() (c SpanComponents) {
	c.ICNTReq = sp.L2At - sp.Inject
	switch {
	case sp.L2Hit:
		c.L2Service = sp.Done - sp.L2At
	case sp.L2Merged:
		c.L2MSHR = sp.Done - sp.L2At
	default:
		c.L2MSHR = sp.DRAMq - sp.L2At
		c.DRAMQueue = sp.Grant - sp.DRAMq
		c.DRAMService = sp.Done - sp.Grant
	}
	c.ICNTResp = sp.Deliver - sp.Done
	c.Total = sp.Deliver - sp.Inject
	return c
}

// SpanComponents is one span's additive latency attribution, in cycles.
type SpanComponents struct {
	ICNTReq     int64
	L2Service   int64
	L2MSHR      int64
	DRAMQueue   int64
	DRAMService int64
	ICNTResp    int64
	Total       int64
}

// MemTrace records memory-request spans. Every method runs on the
// goroutine that runs the simulation (carrier callbacks, grants), so
// there is no concurrent access.
type MemTrace struct {
	ring        []MemSpan
	head        int
	count       int64 // committed (retained + overwritten)
	overwritten int64

	// Whole-run totals over every committed span, whatever the ring
	// still holds: each latency component's sum, how many spans
	// exercised it (a component > 0), and the flag counts, whose
	// Attribution gets its means from Report. The report reads only
	// these.
	sum, exercised SpanComponents
	flags          Attribution

	free []*MemSpan // live-span pool
	live int        // started but not yet committed
}

// Start begins a span for an accepted memory transaction.
func (m *MemTrace) Start(kind SpanKind, sm, part int, line uint64, inject, icntQueue int64) *MemSpan {
	var sp *MemSpan
	if n := len(m.free); n > 0 {
		sp = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		sp = &MemSpan{}
	}
	*sp = MemSpan{Kind: kind, SM: int32(sm), Part: int32(part), Line: line,
		Inject: inject, ICNTQueue: icntQueue}
	m.live++
	return sp
}

// Commit adds a finished span to the totals, files it into the ring
// and recycles the object.
func (m *MemTrace) Commit(sp *MemSpan) {
	c := sp.Components()
	m.sum.Total += c.Total
	tally(&m.sum.ICNTReq, &m.exercised.ICNTReq, c.ICNTReq)
	tally(&m.sum.L2Service, &m.exercised.L2Service, c.L2Service)
	tally(&m.sum.L2MSHR, &m.exercised.L2MSHR, c.L2MSHR)
	tally(&m.sum.DRAMQueue, &m.exercised.DRAMQueue, c.DRAMQueue)
	tally(&m.sum.DRAMService, &m.exercised.DRAMService, c.DRAMService)
	tally(&m.sum.ICNTResp, &m.exercised.ICNTResp, c.ICNTResp)
	if sp.L2Hit {
		m.flags.L2Hits++
	}
	if sp.L2Merged {
		m.flags.L2Merges++
	}
	if sp.RowHit {
		m.flags.RowHits++
	}
	m.flags.MergedL1 += int64(sp.Merged)
	m.flags.Retries += int64(sp.Retries)

	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, *sp)
	} else if cap(m.ring) == 0 {
		m.ring = make([]MemSpan, 0, ringSpans)
		m.ring = append(m.ring, *sp)
	} else {
		m.ring[m.head] = *sp
		m.head++
		if m.head == len(m.ring) {
			m.head = 0
		}
		m.overwritten++
	}
	m.count++
	m.live--
	m.free = append(m.free, sp)
}

// tally adds an exercised component v (> 0) to *sum and counts it in *n.
func tally(sum, n *int64, v int64) {
	if v > 0 {
		*sum += v
		*n++
	}
}

// spans returns the retained spans in commit order.
func (m *MemTrace) spans() []MemSpan {
	if m.overwritten == 0 {
		return m.ring
	}
	out := make([]MemSpan, 0, len(m.ring))
	out = append(out, m.ring[m.head:]...)
	out = append(out, m.ring[:m.head]...)
	return out
}
