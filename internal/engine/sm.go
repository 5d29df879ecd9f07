package engine

import (
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/flight"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/timing"
)

// SM is one streaming multiprocessor executing thread blocks of a single
// kernel launch. It owns the issue logic, the execution-pipeline
// occupancy model and the stall classification; the plugged-in Scheduler
// only decides priority order.
type SM struct {
	ID    int
	Cfg   *config.Config
	Wheel *timing.Wheel
	Mem   *memsys.System
	// Launch is the kernel this SM executes.
	Launch *Launch
	// Sched is the warp-scheduling policy.
	Sched Scheduler

	// WarpSlots holds resident warps; a TB's warps occupy the contiguous
	// range [slot*WarpsPerTB, (slot+1)*WarpsPerTB).
	WarpSlots []*Warp

	// boards holds one issue board per scheduler slot (see issueBoard).
	boards []issueBoard
	// TBSlots holds resident TBs, nil when free. Its length is the
	// launch's per-SM residency limit.
	TBSlots []*ThreadBlock

	residentTBs int
	launchSeq   int

	// PendingTBsFn answers "are TBs still waiting in the Thread Block
	// Scheduler?" — PRO's fastTBPhase test. Wired by the GPU; defaults to
	// zero pending.
	PendingTBsFn func() int
	// OnTBRetireFn is notified after a TB's resources are released, so
	// the GPU can assign a fresh TB. May be nil.
	OnTBRetireFn func(tb *ThreadBlock, cycle int64)

	// Per-cycle issue tokens (reset each Tick): the SFU and MEM units
	// accept one instruction per SM-cycle, shared by the scheduler slots;
	// each slot implicitly owns an SP token by issuing at most once.
	sfuToken bool
	memToken bool

	sfuInflight  int
	memInflight  int
	memBusyUntil int64
	// memOp is the warp memory instruction currently occupying the LD/ST
	// unit's address-generation stage: its coalesced transactions are
	// issued to the memory system at one line per cycle, so uncoalesced
	// accesses hold the unit for many cycles.
	memOp *memOp

	// Stalls is the per-scheduler-slot stall breakdown.
	Stalls []stats.StallBreakdown
	// WarpInstrs / ThreadInstrs count issued work.
	WarpInstrs   int64
	ThreadInstrs int64
	// WarpDisparitySum accumulates each retired TB's warp finish spread;
	// BarrierWaitSum/BarrierEpisodes accumulate barrier first-arrival-to
	// -release waits — the warp-level-divergence measurables.
	WarpDisparitySum int64
	BarrierWaitSum   int64
	BarrierEpisodes  int64

	// icache is the optional per-SM instruction cache (nil when the
	// config disables it): refills that miss pay an extra latency.
	icache *cache.Cache

	orderBuf []*Warp
	lineBuf  []uint64

	// cycleSkipOn folds in Config.DisableCycleSkip.
	cycleSkipOn bool

	// WarpsExamined counts warps the issue scans dereferenced and
	// OrderBuilds the Scheduler.Order calls — exported for benchmarks
	// and tests that pin the scan's cost per issued instruction.
	WarpsExamined int64
	OrderBuilds   int64

	// Sleep state for stall-aware cycle skipping: while asleep, Tick
	// returns immediately until wakeAt (or a wake event zeroes it) and
	// the per-slot stall classes frozen in slotClass are accounted in
	// bulk on wake — see trySleep for why the classification cannot
	// change while asleep.
	asleep bool
	wakeAt int64
	// sleepFrom is the last cycle whose stalls have been accounted.
	sleepFrom int64
	slotClass []slotOutcome

	// memOpFree is the memOp free list (steady-state issue runs
	// allocation-free); sfuDone is the pre-bound SFU-drain callback.
	memOpFree *memOp
	sfuDone   func(int64)

	// tbFree pools retired thread blocks (with their warps) for reuse by
	// AssignTB, so TB-churn-heavy workloads allocate nothing in steady
	// state. Only TBs with no in-flight callbacks are pooled — see
	// poolable. poolOn folds in the Config switch.
	tbFree []*ThreadBlock
	poolOn bool

	// fl, when non-nil, is the flight recorder's per-SM trace. Every
	// hook is behind a single nil check and only reads SM state.
	fl *flight.SMTrace
}

// SetFlight attaches (or, with nil, detaches) a flight-recorder trace.
func (sm *SM) SetFlight(t *flight.SMTrace) {
	sm.fl = t
	if t != nil {
		t.Size(len(sm.WarpSlots), sm.Cfg.SchedulersPerSM)
	}
}

// issueBoard is one scheduler slot's issue state as word-packed masks
// in slot-local index space: warp slot s is bit s/SchedulersPerSM of
// board s%SchedulersPerSM. A scan computes its candidates with a few
// word operations and dereferences only those. DESIGN.md §8.4 tabulates
// each mask's meaning, who sets and clears it, and why the stall class
// stays exact.
type issueBoard struct {
	live    []uint64 // resident and unfinished
	blocked []uint64 // cannot pass the issue checks before gate[i]
	instr   []uint64 // of blocked: has a decoded instruction (Scoreboard, not Idle)
	ready   []uint64 // passed the scoreboard; sticky until the warp issues
	memU    []uint64 // of ready: its instruction needs the LD/ST unit
	sfuU    []uint64 // of ready: its instruction needs the SFU
	inOrder []uint64 // appears in order
	cand    []uint64 // scan scratch: candidates not yet examined
	gate    []int64
	// minGate is a lower bound on the gates of blocked warps: events
	// clear blocked bits without raising it, expire recomputes it.
	minGate int64

	// order is the cached priority order as local indices, walked from
	// start. pos is the entry the scan last offered to tryIssue (the
	// anchor of RotateAfter); headDup records that order[0] recurs.
	order      []int32
	start, pos int
	headDup    bool
	gen        uint64
	valid      bool
}

func (b *issueBoard) init(warps int) {
	words := (warps + 63) / 64
	slab := make([]uint64, 8*words)
	for _, m := range []*[]uint64{&b.live, &b.blocked, &b.instr, &b.ready, &b.memU, &b.sfuU, &b.inOrder, &b.cand} {
		*m, slab = slab[:words:words], slab[words:]
	}
	b.gate = make([]int64, warps)
	b.order = make([]int32, 0, warps+1) // room for GTO's recurring head
	b.minGate = neverWake
}

// block records that local warp i cannot pass the issue checks before
// gate, with or without a decoded instruction.
func (b *issueBoard) block(i int, gate int64, instr bool) {
	wi, bit := i>>6, uint64(1)<<uint(i&63)
	b.blocked[wi] |= bit
	b.instr[wi] &^= bit
	if instr {
		b.instr[wi] |= bit
	}
	b.gate[i] = gate
	if gate < b.minGate {
		b.minGate = gate
	}
}

// expire unblocks every warp whose gate has passed and recomputes
// minGate exactly. Only warps blocked with an instruction have a gate
// that time can reach.
func (b *issueBoard) expire(cycle int64) {
	min := neverWake
	for wi, word := range b.blocked {
		for word &= b.instr[wi]; word != 0; word &= word - 1 {
			t := bits.TrailingZeros64(word)
			if g := b.gate[wi<<6|t]; g <= cycle {
				b.blocked[wi] &^= 1 << uint(t)
			} else if g < min {
				min = g
			}
		}
	}
	b.minGate = min
}

// slotOutcome classifies one scheduler slot's cycle, mirroring the
// stall taxonomy.
type slotOutcome uint8

const (
	outIssued slotOutcome = iota
	outPipeline
	outScoreboard
	outIdle
)

// NewSM builds an SM bound to a launch; factory creates its scheduling
// policy. The launch must already be validated against cfg.
func NewSM(id int, cfg *config.Config, wheel *timing.Wheel, mem *memsys.System, launch *Launch, factory Factory) *SM {
	resident := launch.ResidentTBs(cfg)
	sm := &SM{
		ID:           id,
		Cfg:          cfg,
		Wheel:        wheel,
		Mem:          mem,
		Launch:       launch,
		WarpSlots:    make([]*Warp, resident*launch.WarpsPerTB()),
		TBSlots:      make([]*ThreadBlock, resident),
		PendingTBsFn: func() int { return 0 },
		Stalls:       make([]stats.StallBreakdown, cfg.SchedulersPerSM),
	}
	if cfg.ICacheSize > 0 {
		sm.icache = cache.MustNew(cfg.ICacheSize, cfg.ICacheAssoc, cfg.ICacheLineInstrs*8)
	}
	sm.initBoards(len(sm.WarpSlots))
	sm.orderBuf = make([]*Warp, 0, len(sm.WarpSlots)+1)
	sm.slotClass = make([]slotOutcome, cfg.SchedulersPerSM)
	sm.sfuDone = func(int64) {
		// Only leaving saturation can unblock a Pipeline-stalled warp.
		if sm.sfuInflight >= cfg.SFUQueueDepth {
			sm.wakeEvent()
		}
		sm.sfuInflight--
	}
	mem.OnStoreRelease(id, sm.storeReleased)
	sm.poolOn = !cfg.DisableWarpPooling
	sm.cycleSkipOn = !cfg.DisableCycleSkip
	sm.Sched = factory(sm)
	return sm
}

// initBoards sizes one issue board per scheduler slot for warpSlots
// warp slots.
func (sm *SM) initBoards(warpSlots int) {
	n := sm.Cfg.SchedulersPerSM
	sm.boards = make([]issueBoard, n)
	for k := range sm.boards {
		sm.boards[k].init((warpSlots + n - 1) / n)
	}
}

// CanAccept reports whether a further TB of the launch fits now.
func (sm *SM) CanAccept() bool { return sm.residentTBs < len(sm.TBSlots) }

// ResidentTBCount returns the number of TBs currently resident.
func (sm *SM) ResidentTBCount() int { return sm.residentTBs }

// AssignTB makes TB global resident and returns it. Callers must check
// CanAccept first.
func (sm *SM) AssignTB(global int, cycle int64) *ThreadBlock {
	slot := -1
	for i, tb := range sm.TBSlots {
		if tb == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		panic("engine: AssignTB on a full SM")
	}
	wpt := sm.Launch.WarpsPerTB()
	var tb *ThreadBlock
	for i, cand := range sm.tbFree {
		// Oldest-first: the longer a TB has been retired, the likelier
		// its warps' trailing callbacks (exit-time loads, last refill)
		// have drained.
		if sm.poolable(cand) {
			tb = cand
			copy(sm.tbFree[i:], sm.tbFree[i+1:])
			sm.tbFree[len(sm.tbFree)-1] = nil
			sm.tbFree = sm.tbFree[:len(sm.tbFree)-1]
			break
		}
	}
	if tb != nil {
		tb.reset(global, slot, cycle, sm.launchSeq)
		for i, w := range tb.Warps {
			w.reset(tb, i, slot*wpt+i, cycle)
			sm.WarpSlots[w.Slot] = w
			sm.scheduleFetch(w)
		}
	} else {
		tb = &ThreadBlock{
			Global:     global,
			SMID:       sm.ID,
			Slot:       slot,
			Launch:     sm.Launch,
			StartCycle: cycle,
			LaunchSeq:  sm.launchSeq,
		}
		tb.Warps = make([]*Warp, wpt)
		for i := 0; i < wpt; i++ {
			w := newWarp(sm, tb, i, slot*wpt+i, cycle)
			tb.Warps[i] = w
			sm.WarpSlots[w.Slot] = w
			sm.scheduleFetch(w)
		}
	}
	sm.launchSeq++
	sm.TBSlots[slot] = tb
	sm.residentTBs++
	sm.Sched.OnTBAssign(tb, cycle)
	sm.dropOrders()
	if sm.fl != nil {
		sm.fl.OnTBStart(cycle, tb.Global, slot)
	}
	sm.wakeEvent()
	return tb
}

// scheduleFetch starts an i-buffer refill for w. With the instruction
// cache enabled, a refill that misses at the warp's current PC pays the
// extra miss latency (and fills the line).
func (sm *SM) scheduleFetch(w *Warp) {
	w.fetchBusy = true
	delay := int64(sm.Cfg.IFetchLatency)
	if delay < 1 {
		delay = 1
	}
	if sm.icache != nil {
		pc := w.PC()
		if pc < 0 {
			pc = 0
		}
		addr := uint64(pc) * 8
		if !sm.icache.Access(addr) {
			sm.icache.Fill(addr)
			delay += int64(sm.Cfg.ICacheMissLatency)
		}
	}
	sm.Wheel.ScheduleAfter(delay, w.fetchDone)
}

// Done reports whether the SM has no resident TBs.
func (sm *SM) Done() bool { return sm.residentTBs == 0 }

// memOp is one warp memory instruction in the LD/ST unit. Ops are
// recycled through the SM's free list so the steady-state issue loop does
// not allocate; buf backs lines (a coalesced warp access touches at most
// one line per lane).
type memOp struct {
	sm    *SM
	next  *memOp // free-list link
	w     *Warp
	dst   isa.Reg
	kind  isa.Op
	lines []uint64 // transactions not yet issued; aliases buf
	buf   [config.WarpSize]uint64
	// outstanding counts issued-but-incomplete load/atomic transactions;
	// pushed reports all transactions issued. The op's warp dependency
	// resolves when pushed && outstanding == 0.
	outstanding int
	pushed      bool
	// doneFn is the per-transaction completion callback, bound once at
	// op allocation and reused across pool cycles.
	doneFn func(int64)
}

// getMemOp takes an op from the free list, allocating on first use.
func (sm *SM) getMemOp() *memOp {
	op := sm.memOpFree
	if op == nil {
		op = &memOp{sm: sm}
		op.doneFn = func(cy int64) {
			op.outstanding--
			// Every L1 MSHR fill on this SM runs one of these, so this
			// is where a refused load/atomic head learns that an entry
			// (or its line) became available. With the unit empty there
			// is nothing to retry and a sleeper stays asleep.
			if sm.memOp != nil {
				sm.wakeEvent()
			}
			sm.memOpLineDone(op, cy)
		}
	} else {
		sm.memOpFree = op.next
		op.next = nil
	}
	return op
}

// putMemOp returns a fully-resolved op to the free list. The caller
// guarantees no transaction callbacks remain in flight.
func (sm *SM) putMemOp(op *memOp) {
	op.w = nil
	op.lines = nil
	op.outstanding = 0
	op.pushed = false
	op.next = sm.memOpFree
	sm.memOpFree = op
}

// Tick runs one core cycle: the LD/ST unit drains one pending
// transaction, then each scheduler slot picks an order and the engine
// issues at most one instruction per slot, classifying the slot's outcome
// as issued / Idle / Scoreboard / Pipeline.
//
// When cycle skipping is enabled, a Tick on which nothing moved — no
// slot issued, and the LD/ST unit is empty or had its head transaction
// refused — puts the SM to sleep: subsequent Ticks return immediately
// and the skipped cycles' stalls are accounted in bulk on wake (see
// trySleep for the invariants).
func (sm *SM) Tick(cycle int64) {
	if sm.asleep {
		if cycle < sm.wakeAt {
			return
		}
		sm.wake(cycle)
	}
	sm.sfuToken = true
	sm.memToken = true
	refused := sm.drainMemOp(cycle)
	canSleep := sm.cycleSkipOn && (sm.memOp == nil || refused)
	wake := neverWake
	for slot := 0; slot < sm.Cfg.SchedulersPerSM; slot++ {
		out, until := sm.tickSlot(slot, cycle)
		sm.slotClass[slot] = out
		if sm.fl != nil {
			sm.fl.OnSlotOutcome(cycle, slot, uint8(out))
		}
		if out == outIssued {
			canSleep = false
		} else if until < wake {
			wake = until
		}
	}
	if canSleep {
		sm.trySleep(cycle, wake)
	}
}

// neverWake is the wakeAt of a sleeping SM that no clock can wake: only
// an explicit event (a wheel callback or a TB assignment) calling
// wakeEvent ends its sleep.
const neverWake = int64(math.MaxInt64)

// trySleep puts the SM to sleep after a cycle on which no slot issued
// and the LD/ST unit made no progress (empty, or head transaction
// refused). wake is the earliest cycle at which any slot's outcome can
// change on the SM's own clock, as the full scans that just ran computed
// it (tickSlot). The frozen per-slot classification — Idle, Scoreboard or
// Pipeline — cannot change while asleep, because every state transition
// that could change it either
//
//   - happens at a statically-known cycle — a register becoming ready
//     (readyAt, kept in the board's gate), the LD/ST unit's busy window
//     closing (memBusyUntil), both folded into wake by tickSlot, or a
//     policy's timed refresh, bounded by Scheduler.NextTimedEvent — or
//   - is driven by a wheel/assignment event that calls wakeEvent, which
//     forces a full re-evaluation on the next Tick: load completion,
//     i-buffer refill and TB assignment for blocked warps, and for a
//     scoreboard-ready warp the release of the structure that refused it
//     — an L1 MSHR fill or a store-buffer slot while a mem op holds the
//     LD/ST unit (memOp.doneFn, storeReleased), a mem-queue entry
//     (memOpLineDone), the SFU queue leaving saturation (sfuDone).
//
// With no issue this cycle both per-cycle unit tokens are intact, so those
// persistent conditions are the only reasons a ready warp was refused, and
// a refused memory transaction has no side effects, so skipping its
// retries changes nothing. Barrier releases and TB retirements only happen
// on the SM's own issue path, which cannot run while asleep.
// DESIGN.md §8.3 tabulates every block reason against its wake source.
func (sm *SM) trySleep(cycle, wake int64) {
	if sm.residentTBs > 0 {
		if nt := sm.Sched.NextTimedEvent(cycle); nt > cycle && nt < wake {
			wake = nt
		}
	}
	if wake <= cycle+1 {
		return // nothing to skip
	}
	sm.asleep = true
	sm.wakeAt = wake
	sm.sleepFrom = cycle
}

// ScanLive appends scheduler slot schedSlot's live warps (resident and
// not yet finished) to dst in warp-slot order, starting at warp slot
// start and wrapping — the rotation primitive for round-robin order
// rebuilds. It walks the board's packed live mask, so a rebuild tests 64
// warps per word instead of loading every WarpSlots pointer.
func (sm *SM) ScanLive(schedSlot, start int, dst []*Warp) []*Warp {
	n := sm.Cfg.SchedulersPerSM
	words := sm.boards[schedSlot].live
	first := (start - schedSlot + n - 1) / n // first local index at or after warp slot start
	sw, sb := first>>6, uint(first&63)
	for wi := sw; wi < len(words); wi++ {
		word := words[wi]
		if wi == sw {
			word &= ^uint64(0) << sb
		}
		for ; word != 0; word &= word - 1 {
			dst = append(dst, sm.WarpSlots[(wi<<6|bits.TrailingZeros64(word))*n+schedSlot])
		}
	}
	for wi := 0; wi <= sw && wi < len(words); wi++ {
		word := words[wi]
		if wi == sw {
			word &= 1<<sb - 1
		}
		for ; word != 0; word &= word - 1 {
			dst = append(dst, sm.WarpSlots[(wi<<6|bits.TrailingZeros64(word))*n+schedSlot])
		}
	}
	return dst
}

// wake ends a sleep at cycle, accounting the skipped cycles' stalls;
// cycle itself is then ticked normally by the caller.
func (sm *SM) wake(cycle int64) {
	sm.flushSleep(cycle - 1)
	sm.asleep = false
}

// flushSleep accounts the frozen per-slot stall classes for all skipped
// cycles up to and including through.
func (sm *SM) flushSleep(through int64) {
	if through <= sm.sleepFrom {
		return
	}
	n := through - sm.sleepFrom
	for slot, class := range sm.slotClass {
		switch class {
		case outPipeline:
			sm.Stalls[slot].Pipeline += n
		case outScoreboard:
			sm.Stalls[slot].Scoreboard += n
		default:
			sm.Stalls[slot].Idle += n
		}
	}
	sm.sleepFrom = through
}

// wakeEvent forces a sleeping SM to re-evaluate on its next Tick. Called
// from every callback that can change a warp's validity or readiness, or
// release a structure a ready warp was refused by, outside the SM's own
// issue path.
func (sm *SM) wakeEvent() {
	if sm.asleep {
		sm.wakeAt = 0
	}
}

// storeReleased is the memory system's store-buffer notification: a
// slot freed, which matters only to a store the LD/ST unit is retrying.
func (sm *SM) storeReleased() {
	if sm.memOp != nil {
		sm.wakeEvent()
	}
}

// drainMemOp issues at most one transaction of the in-flight memory
// instruction and reports whether the memory system refused it (leaving
// the unit exactly as it was). The unit frees as soon as all transactions
// are issued; the data return path is tracked by callbacks.
func (sm *SM) drainMemOp(cycle int64) (refused bool) {
	op := sm.memOp
	if op == nil {
		return false
	}
	line := op.lines[0]
	switch op.kind {
	case isa.OpStGlobal:
		if !sm.Mem.StoreLine(sm.ID, line) {
			return true // store buffer full; retry on storeReleased
		}
	case isa.OpLdGlobal, isa.OpAtomGlobal:
		var ok bool
		if op.kind == isa.OpLdGlobal {
			ok = sm.Mem.LoadLine(sm.ID, line, op.doneFn)
		} else {
			ok = sm.Mem.AtomicLine(sm.ID, line, op.doneFn)
		}
		if !ok {
			return true // MSHRs full; retry on the next fill (doneFn)
		}
		op.outstanding++
	}
	op.lines = op.lines[1:]
	if len(op.lines) == 0 {
		op.pushed = true
		sm.memOp = nil
		if op.kind == isa.OpStGlobal {
			// Stores are fire-and-forget: the instruction is complete for
			// the warp once all lines entered the store path.
			sm.memInflight--
			sm.putMemOp(op)
		} else {
			sm.memOpLineDone(op, cycle)
		}
	}
	return false
}

// memOpLineDone resolves a load/atomic op when every transaction has
// been issued and completed.
func (sm *SM) memOpLineDone(op *memOp, cy int64) {
	if !op.pushed || op.outstanding != 0 {
		return
	}
	op.pushed = false // guard against double resolution
	if op.dst != isa.NoReg {
		op.w.regReady[op.dst] = cy
	}
	// (A warp that exited with the load in flight may have handed its
	// board index on; its successor is then re-examined once, no more.)
	op.w.unblock()
	op.w.outstandingLoads--
	sm.memInflight--
	sm.wakeEvent()
	sm.putMemOp(op)
}

// tickSlot runs one scheduler slot's cycle. Besides the outcome it
// returns, for a slot that did not issue under cycle skipping, a lower
// bound on the cycle at which the outcome can change on the SM's own
// clock (neverWake: only through an event) — trySleep's per-slot wake
// bound.
func (sm *SM) tickSlot(slot int, cycle int64) (slotOutcome, int64) {
	if sm.residentTBs == 0 {
		sm.Stalls[slot].Idle++
		return outIdle, neverWake
	}
	b := &sm.boards[slot]
	// OrderGen runs unconditionally — time-driven refreshes (PRO's
	// THRESHOLD re-sort) live inside it — and its generation, with the
	// hints and residency changes that cleared valid, decides whether the
	// cached order is still current.
	gen := sm.Sched.OrderGen(slot, cycle)
	if !b.valid || b.gen != gen {
		sm.buildOrder(b, slot, cycle)
		b.gen, b.valid = gen, true
		if sm.fl != nil {
			sm.fl.OnResort(cycle, slot, gen)
		}
	}
	if cycle >= b.minGate {
		b.expire(cycle)
	}

	// Candidates: in order, live, not blocked. A ready warp waiting for a
	// unit that cannot accept this cycle would fail tryIssue's first check
	// (which has no side effects); such warps leave as a class.
	memBusy := !sm.memToken || cycle < sm.memBusyUntil || sm.memOp != nil
	sfuBusy := !sm.sfuToken || sm.sfuInflight >= sm.Cfg.SFUQueueDepth
	anyValid, anyReady := false, false
	left := 0
	for i, in := range b.inOrder {
		in &= b.live[i]
		anyValid = anyValid || in&b.blocked[i]&b.instr[i] != 0
		c := in &^ b.blocked[i]
		var refused uint64
		if memBusy {
			refused = c & b.ready[i] & b.memU[i]
		}
		if sfuBusy {
			refused |= c & b.ready[i] & b.sfuU[i]
		}
		anyReady = anyReady || refused != 0
		b.cand[i] = c &^ refused
		left += bits.OnesCount64(b.cand[i])
	}

	skipOn := sm.cycleSkipOn
	k := b.start
	for n := len(b.order); n > 0 && left > 0; n-- {
		pos := k
		if k++; k == len(b.order) {
			k = 0
		}
		li := int(b.order[pos])
		wi, bit := li>>6, uint64(1)<<uint(li&63)
		if b.cand[wi]&bit == 0 {
			continue // not a candidate, or a later duplicate of one examined
		}
		b.cand[wi] &^= bit
		left--
		sm.WarpsExamined++
		w := sm.WarpSlots[li*len(sm.boards)+slot]
		in := w.nextIn
		switch {
		case in == nil:
			// At a barrier or awaiting an i-buffer refill: both end via
			// events that unblock the warp.
			if skipOn {
				b.block(li, neverWake, false)
			}
		case b.ready[wi]&bit == 0 && !w.ScoreboardReady(in, cycle):
			// Blocked until the registers are ready (readyAt > cycle
			// whenever the scoreboard blocks); a pending load gates at
			// neverWake and its resolution unblocks the warp.
			anyValid = true
			gate := w.readyAt(in)
			if skipOn {
				b.block(li, gate, true)
			}
			if sm.fl != nil {
				sm.fl.OnWarpStall(cycle, w.Slot, w.TB.Global, gate)
			}
		default:
			anyValid, anyReady = true, true
			if skipOn && b.ready[wi]&bit == 0 {
				// Readiness is sticky: registers only become unavailable
				// through the warp's own issue, which ends in
				// refreshNextInstr clearing the bit.
				b.ready[wi] |= bit
				b.memU[wi] &^= bit
				b.sfuU[wi] &^= bit
				switch in.Op.Unit() {
				case isa.UnitMem:
					b.memU[wi] |= bit
				case isa.UnitSFU:
					b.sfuU[wi] |= bit
				}
			}
			b.pos = pos
			if sm.tryIssue(w, in, cycle) {
				sm.Stalls[slot].Issued++
				return outIssued, 0
			}
		}
	}
	switch {
	case anyReady:
		sm.Stalls[slot].Pipeline++
		// The LD/ST unit's busy window is the one structural block that
		// ends with time rather than with an event.
		if cycle < sm.memBusyUntil && sm.memBusyUntil < b.minGate {
			return outPipeline, sm.memBusyUntil
		}
		return outPipeline, b.minGate
	case anyValid:
		sm.Stalls[slot].Scoreboard++
		return outScoreboard, b.minGate
	default:
		sm.Stalls[slot].Idle++
		return outIdle, b.minGate
	}
}

// buildOrder asks the policy for slot's order and stores it on the
// board, dropping the entries a scan would skip unconditionally — nil
// slots, the other scheduler's warps, finished warps. Duplicates stay:
// a scan examines a candidate once, at its first occurrence.
func (sm *SM) buildOrder(b *issueBoard, slot int, cycle int64) {
	ws := sm.Sched.Order(slot, sm.orderBuf[:0], cycle)
	sm.orderBuf = ws[:0]
	sm.OrderBuilds++
	clear(b.inOrder)
	b.order, b.start, b.headDup = b.order[:0], 0, false
	for _, w := range ws {
		if w == nil || w.SchedSlot != slot || w.finished {
			continue
		}
		if b.inOrder[w.word]&w.bit != 0 && b.order[0] == int32(w.local) {
			b.headDup = true
		}
		b.inOrder[w.word] |= w.bit
		b.order = append(b.order, int32(w.local))
	}
}

// applyHint applies what a hook said about the order of the issuing
// warp w's slot. w is the entry at b.pos, where the scan offered it to
// tryIssue, so it is in the cached order.
func applyHint(w *Warp, h Hint) {
	b := w.board
	switch h {
	case Keep:
	case RotateAfter:
		if b.start = b.pos + 1; b.start == len(b.order) {
			b.start = 0
		}
	case NewHead:
		// The old head keeps its later place only if it recurs, and
		// position 0 is the head only while the order is unrotated.
		if b.start == 0 && b.headDup {
			b.order[0] = int32(w.local)
		} else {
			b.valid = false
		}
	default:
		b.valid = false
	}
}

// dropOrders makes every slot rebuild its order on its next scan.
func (sm *SM) dropOrders() {
	for k := range sm.boards {
		sm.boards[k].valid = false
	}
}

// tryIssue attempts to issue in from w at cycle; it returns false — with
// no state changed — when the required pipeline cannot accept the
// instruction (unit token taken, queue full, MSHR/store-buffer refusal).
func (sm *SM) tryIssue(w *Warp, in *isa.Instr, cycle int64) bool {
	switch in.Op.Unit() {
	case isa.UnitSFU:
		if !sm.sfuToken || sm.sfuInflight >= sm.Cfg.SFUQueueDepth {
			return false
		}
	case isa.UnitMem:
		if !sm.memToken || cycle < sm.memBusyUntil || sm.memOp != nil {
			return false
		}
	}

	// The snapshot fields are coherent with in (== w.nextIn): see
	// Warp.nextPC.
	pc := int(w.nextPC)
	iter := int64(w.nextIter)
	mask := w.nextMask
	tb := w.TB

	// Global-memory instructions occupy the LD/ST unit's single mem-op
	// register until all their coalesced transactions have been issued.
	switch in.Op {
	case isa.OpLdGlobal, isa.OpAtomGlobal, isa.OpStGlobal:
		if sm.memOp != nil || sm.memInflight >= sm.Cfg.MemQueueDepth {
			return false
		}
		lines := isa.LineAddrs(sm.lineBuf[:0], in.Mem, sm.Launch.Seed,
			tb.Global, w.IDInTB, pc, iter, mask, sm.Launch.BlockThreads, sm.Cfg.L1Line)
		sm.lineBuf = lines[:0]
		op := sm.getMemOp()
		op.w = w
		op.dst = in.Dst
		op.kind = in.Op
		op.lines = op.buf[:copy(op.buf[:], lines)]
		sm.memOp = op
		sm.memInflight++
		if in.Op != isa.OpStGlobal {
			w.outstandingLoads++
			if in.Dst != isa.NoReg {
				w.regReady[in.Dst] = regPendingLoad
			}
		}
		sm.memToken = false
		// Issue the first transaction this cycle so a fully coalesced
		// access holds the unit for exactly one cycle.
		sm.drainMemOp(cycle)

	case isa.OpLdShared, isa.OpStShared:
		passes := isa.BankPasses(in.Mem, sm.Launch.Seed, tb.Global, w.IDInTB, pc, iter, mask, sm.Cfg.SharedBanks)
		lat := int64(sm.Cfg.SharedLatency + (passes-1)*sm.Cfg.SharedConflictPenalty)
		w.setRegLatency(in.Dst, cycle, lat)
		sm.memToken = false
		sm.memBusyUntil = cycle + int64(passes)

	case isa.OpLdConst:
		w.setRegLatency(in.Dst, cycle, int64(sm.Cfg.ConstLatency))
		sm.memToken = false
		sm.memBusyUntil = cycle + 1

	case isa.OpSFU:
		w.setRegLatency(in.Dst, cycle, int64(sm.Cfg.SFULatency))
		sm.sfuInflight++
		sm.Wheel.ScheduleAfter(int64(sm.Cfg.SFULatency), sm.sfuDone)
		sm.sfuToken = false

	default: // SP arithmetic and control
		w.setRegLatency(in.Dst, cycle, int64(sm.Cfg.ALULatency))
	}

	// Committed: account progress exactly as the paper's hardware does —
	// warp and TB progress registers incremented by the active-thread
	// count on every scheduled cycle.
	lanes := bits.OnesCount32(mask)
	w.visits[pc]++
	w.Progress += int64(lanes)
	tb.Progress += int64(lanes)
	w.Issued++
	sm.WarpInstrs++
	sm.ThreadInstrs += int64(lanes)
	if sm.fl != nil {
		sm.fl.OnIssue(cycle, w.SchedSlot, w.Slot, tb.Global, w.Progress, int64(pc))
	}

	w.ibuf--
	if w.ibuf == 0 && !w.finished {
		sm.scheduleFetch(w)
	}

	switch in.Op {
	case isa.OpBra:
		w.execBranch(in, pc, iter)
	case isa.OpBar:
		w.advancePC()
		w.atBar = true
		tb.WarpsAtBarrier++
		if tb.WarpsAtBarrier == 1 {
			tb.barrierStart = cycle
		}
		applyHint(w, sm.Sched.OnBarrierArrive(w, cycle))
		if sm.fl != nil {
			sm.fl.OnBarrier(cycle, w.Slot, tb.Global)
		}
		if tb.barrierComplete() {
			for _, sib := range tb.Warps {
				sib.atBar = false
				sib.unblock()
				sib.refreshNextInstr()
			}
			tb.WarpsAtBarrier = 0
			sm.BarrierWaitSum += cycle - tb.barrierStart
			sm.BarrierEpisodes++
			tb.barrierStart = 0
			if sm.Sched.OnBarrierRelease(tb, cycle) != Keep {
				sm.dropOrders()
			}
		}
	case isa.OpExit:
		// An Exit is reported by OnWarpFinish (and OnTBRetire for the
		// TB's last warp), not by OnIssue: once the TB retires, no hook
		// names its warps, which a pooled TB reuses for the next one.
		w.finished = true
		w.board.live[w.word] &^= w.bit
		w.FinishCycle = cycle
		w.stack = w.stack[:0]
		tb.WarpsFinished++
		applyHint(w, sm.Sched.OnWarpFinish(w, cycle))
		if sm.fl != nil {
			sm.fl.OnWarpFinish(cycle, w.Slot, tb.Global, w.Progress, w.SpawnCycle)
		}
		if tb.Done() {
			sm.retireTB(tb, cycle)
		}
	default:
		w.advancePC()
	}
	w.refreshNextInstr()

	if in.Op != isa.OpExit {
		applyHint(w, sm.Sched.OnIssue(w, in, lanes, cycle))
	}
	return true
}

// retireTB releases a finished TB's resources and notifies the policy and
// the GPU.
func (sm *SM) retireTB(tb *ThreadBlock, cycle int64) {
	tb.EndCycle = cycle
	sm.WarpDisparitySum += tb.WarpDisparity()
	for _, w := range tb.Warps {
		sm.WarpSlots[w.Slot] = nil // its live bit went at Exit
	}
	sm.TBSlots[tb.Slot] = nil
	sm.residentTBs--
	sm.Sched.OnTBRetire(tb, cycle)
	sm.dropOrders()
	if sm.fl != nil {
		sm.fl.OnTBFinish(cycle, tb.Global, tb.Progress)
	}
	if sm.OnTBRetireFn != nil {
		sm.OnTBRetireFn(tb, cycle)
	}
	if sm.poolOn {
		sm.tbFree = append(sm.tbFree, tb)
	}
}

// poolable reports whether tb's warps can be recycled right now. A warp
// can exit with a load or atomic still in flight (Exit does not read the
// load's destination register), or with a final useless i-buffer refill
// pending (scheduled in the same issue that set finished); both
// callbacks still reference the warp and would corrupt a reused one, so
// such TBs stay in the pool until the callbacks drain — AssignTB
// re-checks at reuse time. The callbacks themselves are harmless against
// a pool-resident warp (they fired against retired warps before pooling
// existed, too).
func (sm *SM) poolable(tb *ThreadBlock) bool {
	for _, w := range tb.Warps {
		if w.outstandingLoads != 0 || w.fetchBusy {
			return false
		}
	}
	return true
}

// StallTotal sums the per-slot breakdowns, first accounting any cycles
// skipped by an in-progress sleep up to the wheel's current cycle (the
// GPU samples mid-run and reads the final totals through this method).
func (sm *SM) StallTotal() stats.StallBreakdown {
	if sm.asleep {
		sm.flushSleep(sm.Wheel.Now())
	}
	var t stats.StallBreakdown
	for _, s := range sm.Stalls {
		t.Add(s)
	}
	return t
}
