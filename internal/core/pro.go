// Package core implements PRO, the Progress Aware warp scheduling
// algorithm of Anantpur & Govindarajan (IPDPS 2015) — the paper's primary
// contribution.
//
// PRO prioritizes thread blocks and the warps inside them by *progress*
// (thread-instructions executed), with a small state machine per TB
// (paper Fig. 3) and two kernel-level phases:
//
//   - fastTBPhase (TBs still waiting in the Thread Block Scheduler):
//     priority finishWait > barrierWait > noWait. finishWait TBs sort by
//     warps-finished descending (tie: progress descending); barrierWait
//     TBs by warps-at-barrier descending (tie: progress descending);
//     noWait TBs by progress descending (SRTF-like — most-progressed TB
//     finishes soonest, freeing its slot for a fresh TB). Warps inside
//     finishWait/barrierWait TBs sort by progress ascending (help the
//     stragglers); inside noWait TBs by progress descending.
//
//   - slowTBPhase (last TB assigned): finishWait and noWait merge into
//     finishNoWait, sorted by progress ascending (shrink the straggler
//     tail), warps ascending; barrierWait TBs keep top priority.
//
// TB and warp orders for the noWait/finishNoWait group refresh every
// THRESHOLD cycles (1000 in the paper); barrier/finish groups re-sort on
// the events that change them, mirroring Algorithm 1's
// insertBarrierWarp / insertFinishWarp procedures.
//
// Note on Algorithm 1 line 59: the pseudocode says sortTBs(remTBs,
// INC_ORDER) unconditionally, while the prose (Sec. III-C.1) and Table IV
// are explicit that noWait TBs in fastTBPhase sort by *decreasing*
// progress. This implementation follows the prose — decreasing in
// fastTBPhase, increasing in slowTBPhase — and records the discrepancy in
// DESIGN.md.
package core

import (
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/stats"
)

// DefaultThreshold is the paper's re-sort interval (Sec. III-C.1).
const DefaultThreshold = 1000

type tbState uint8

const (
	stNoWait tbState = iota
	stBarrierWait
	stFinishWait
	stFinishNoWait
)

// tbEntry is PRO's per-TB bookkeeping: the state-machine state plus the
// policy's priority-ordered view of the TB's warps.
type tbEntry struct {
	tb    *engine.ThreadBlock
	state tbState
	warps []*engine.Warp
}

// Policy is the PRO scheduler for one SM (serving both scheduler slots,
// which share the SM-wide TB priority structure).
type Policy struct {
	engine.BasePolicy
	sm *engine.SM

	threshold       int64
	barrierHandling bool
	trace           bool

	// normalize enables the Sec. III-A alternative progress metric
	// (progress normalized by the mean size of completed TBs).
	normalize       bool
	completedTBs    int64
	completedInstrs int64

	// adaptive enables the Sec. IV future-work mechanism: profile the
	// kernel online and enable/disable barrier special-handling per SM
	// based on measured issue throughput.
	adaptive *adaptiveState

	slowPhase bool
	lastSort  int64

	// gen is the order generation reported through OrderGen: bumped by
	// every mutation of the priority structure that changes the emitted
	// order (group sorts that actually move an element, list migrations,
	// assignment/retirement), it lets the engine reuse a cached order on
	// the many cycles where nothing changed. Event-driven re-sorts that
	// leave every element in place — the common case for barrier
	// arrivals and warp finishes — deliberately do not bump it.
	gen uint64

	entries map[*engine.ThreadBlock]*tbEntry
	finish  []*tbEntry // finishWait TBs, priority order
	barrier []*tbEntry // barrierWait / barrierWait1 TBs, priority order
	rem     []*tbEntry // noWait (fast) or finishNoWait (slow), priority order

	// entryFree recycles retired tbEntries (and their warps slices) so
	// TB churn does not allocate in steady state. A retired entry is out
	// of every group list and the entries map before it is pooled.
	entryFree []*tbEntry

	samples []stats.OrderSample
}

// Option configures the policy.
type Option func(*Policy)

// WithThreshold sets the TB/warp re-sort interval in cycles.
func WithThreshold(cycles int64) Option {
	return func(p *Policy) {
		if cycles > 0 {
			p.threshold = cycles
		}
	}
}

// WithoutBarrierHandling disables the special prioritization of TBs with
// warps waiting at barriers — the ablation the paper reports for
// scalarProd (Sec. IV: +11% when disabled).
func WithoutBarrierHandling() Option {
	return func(p *Policy) { p.barrierHandling = false }
}

// WithOrderTrace records Table IV-style priority-order samples on SM 0
// at every threshold re-sort.
func WithOrderTrace() Option {
	return func(p *Policy) { p.trace = true }
}

// New returns an engine.Factory building PRO policies.
func New(opts ...Option) engine.Factory {
	return func(sm *engine.SM) engine.Scheduler {
		p := &Policy{
			sm:              sm,
			threshold:       DefaultThreshold,
			barrierHandling: true,
			entries:         make(map[*engine.ThreadBlock]*tbEntry),
		}
		for _, o := range opts {
			o(p)
		}
		return p
	}
}

// Name implements engine.Scheduler.
func (p *Policy) Name() string {
	switch {
	case p.adaptive != nil:
		return "PRO-adaptive"
	case p.normalize:
		return "PRO-norm"
	case !p.barrierHandling:
		return "PRO-nobar"
	}
	return "PRO"
}

// fastPhase queries the Thread Block Scheduler, like Algorithm 1's
// TBsWaitingInThrdBlkSched().
func (p *Policy) fastPhase() bool { return p.sm.PendingTBsFn() > 0 }

// refresh runs the time-driven part of scheduleWarps: the adaptive
// profiling state machine, the fast→slow phase transition and the
// THRESHOLD re-sort of the rem group. It is idempotent within a cycle
// (each step guards on state it updates), matching the historical
// behavior of running once per scheduler slot.
func (p *Policy) refresh(cycle int64) {
	if p.adaptive != nil {
		p.adaptTick(cycle)
	}
	if !p.slowPhase && !p.fastPhase() {
		p.transitionToSlowPhase()
	}
	if cycle-p.lastSort >= p.threshold {
		p.lastSort = cycle
		p.sortRem()
		if p.trace && p.sm.ID == 0 {
			p.sample(cycle)
		}
	}
}

// Order implements engine.Scheduler — the scheduleWarps procedure of
// Algorithm 1: handle the phase transition, re-sort the rem group on the
// threshold, then emit warps from finishWait, barrierWait and rem TBs in
// that priority order.
func (p *Policy) Order(slot int, dst []*engine.Warp, cycle int64) []*engine.Warp {
	p.refresh(cycle)
	dst = p.appendGroup(dst, slot, p.finish)
	dst = p.appendGroup(dst, slot, p.barrier)
	dst = p.appendGroup(dst, slot, p.rem)
	return dst
}

// OrderGen implements engine.Scheduler. The refresh lives here so
// threshold re-sorts and adaptive epochs keep firing on cycles where the
// engine's order cache hits and Order is never called.
func (p *Policy) OrderGen(slot int, cycle int64) uint64 {
	p.refresh(cycle)
	return p.gen
}

// NextTimedEvent implements engine.Scheduler: the next cycle at
// which refresh does something time-driven — the cycle the re-sort
// threshold elapses, or the adaptive controller's next epoch switch.
// A sleeping SM wakes no later than this, so lastSort and the epoch
// boundaries advance exactly as under per-cycle ticking.
func (p *Policy) NextTimedEvent(cycle int64) int64 {
	next := p.lastSort + p.threshold
	if p.adaptive != nil && p.adaptive.nextSwitch > cycle && p.adaptive.nextSwitch < next {
		next = p.adaptive.nextSwitch
	}
	return next
}

func (p *Policy) appendGroup(dst []*engine.Warp, slot int, group []*tbEntry) []*engine.Warp {
	for _, e := range group {
		for _, w := range e.warps {
			if w.SchedSlot == slot && !w.Finished() {
				dst = append(dst, w)
			}
		}
	}
	return dst
}

// transitionToSlowPhase implements Algorithm 1 lines 36–40: finishWait
// and noWait TBs merge into finishNoWait (sorted ascending by progress,
// warps ascending); barrierWait TBs become barrierWait1 (no list change —
// they already outrank finishNoWait and will transition to finishNoWait
// when their barrier completes).
func (p *Policy) transitionToSlowPhase() {
	p.slowPhase = true
	p.gen++ // group merge changes the order even if no sort moves
	p.rem = append(p.rem, p.finish...)
	p.finish = p.finish[:0]
	for _, e := range p.rem {
		e.state = stFinishNoWait
		sortWarps(e.warps, true)
	}
	p.sortRem()
}

// progressKey is the TB priority key for the rem group. Plain PRO uses
// raw TBProgress; the normalized variant (Sec. III-A's alternative)
// divides by the mean total instruction count of completed TBs,
// approximating "fraction of the TB done" when TBs differ in size.
func (p *Policy) progressKey(tb *engine.ThreadBlock) float64 {
	if p.normalize && p.completedTBs > 0 {
		return float64(tb.Progress) * float64(p.completedTBs) / float64(p.completedInstrs)
	}
	return float64(tb.Progress)
}

// The group and warp sorts below are stable insertion sorts rather than
// sort.SliceStable: every comparator is a total order (global TB index /
// warp index break all ties), so the permutation is identical, and
// insertion sorting small, mostly-sorted lists in place avoids the
// reflection machinery and its per-call allocations on the hot path.

// insertionSortTBs stably sorts list by less, reporting whether any
// element moved. Because every comparator is a total order, "nothing
// moved" means the sorted list — and hence the emitted Order — is
// byte-identical to the previous one, so callers skip the generation
// bump and the engine keeps its cached orders and slot gates.
func insertionSortTBs(list []*tbEntry, less func(a, b *tbEntry) bool) bool {
	moved := false
	for i := 1; i < len(list); i++ {
		e := list[i]
		j := i - 1
		for j >= 0 && less(e, list[j]) {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = e
		if j+1 != i {
			moved = true
		}
	}
	return moved
}

// sortRem orders the rem group: fast phase by progress descending (tie:
// global TB index ascending, per Sec. III-C.1) with warps descending;
// slow phase by progress ascending with warps ascending.
func (p *Policy) sortRem() {
	asc := p.slowPhase
	moved := insertionSortTBs(p.rem, func(x, y *tbEntry) bool {
		ka, kb := p.progressKey(x.tb), p.progressKey(y.tb)
		switch {
		case ka == kb:
			return x.tb.Global < y.tb.Global
		case asc:
			return ka < kb
		}
		return ka > kb
	})
	for _, e := range p.rem {
		if sortWarps(e.warps, asc) {
			moved = true
		}
	}
	if moved {
		p.gen++
	}
}

// sortWaitGroup orders the finishWait group by warps finished
// (Sec. III-C.2) or the barrierWait group by warps at the barrier
// (Sec. III-C.3), descending, tie by progress descending, then global
// index.
func (p *Policy) sortWaitGroup(list []*tbEntry, count func(*engine.ThreadBlock) int) {
	if insertionSortTBs(list, func(x, y *tbEntry) bool {
		a, b := x.tb, y.tb
		if ca, cb := count(a), count(b); ca != cb {
			return ca > cb
		}
		if a.Progress != b.Progress {
			return a.Progress > b.Progress
		}
		return a.Global < b.Global
	}) {
		p.gen++
	}
}

func warpsFinished(tb *engine.ThreadBlock) int  { return tb.WarpsFinished }
func warpsAtBarrier(tb *engine.ThreadBlock) int { return tb.WarpsAtBarrier }

// sortWarps stably sorts a TB's warps by progress, ascending or
// descending, tie by warp index, reporting whether any warp moved.
func sortWarps(ws []*engine.Warp, asc bool) bool {
	before := func(a, b *engine.Warp) bool {
		if a.Progress != b.Progress {
			return (a.Progress < b.Progress) == asc
		}
		return a.IDInTB < b.IDInTB
	}
	moved := false
	for i := 1; i < len(ws); i++ {
		w := ws[i]
		j := i - 1
		for j >= 0 && before(w, ws[j]) {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = w
		if j+1 != i {
			moved = true
		}
	}
	return moved
}

// remove deletes e from list, preserving order.
func remove(list []*tbEntry, e *tbEntry) []*tbEntry {
	for i, x := range list {
		if x == e {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// OnTBAssign implements engine.Scheduler: a fresh TB starts in noWait
// (new TBs only arrive during fastTBPhase; if one ever arrived later it
// would join finishNoWait). It enters at the tail of the rem group — with
// zero progress it belongs at the bottom of the fast-phase order anyway —
// and the next threshold sort places it exactly.
func (p *Policy) OnTBAssign(tb *engine.ThreadBlock, _ int64) {
	var e *tbEntry
	if n := len(p.entryFree); n > 0 {
		e = p.entryFree[n-1]
		p.entryFree[n-1] = nil
		p.entryFree = p.entryFree[:n-1]
		e.tb = tb
		e.state = stNoWait
		e.warps = append(e.warps[:0], tb.Warps...)
	} else {
		e = &tbEntry{tb: tb, warps: append([]*engine.Warp(nil), tb.Warps...)}
	}
	if p.slowPhase {
		e.state = stFinishNoWait
	}
	p.entries[tb] = e
	p.rem = append(p.rem, e)
	p.gen++
}

// OnTBRetire implements engine.Scheduler.
func (p *Policy) OnTBRetire(tb *engine.ThreadBlock, _ int64) {
	e := p.entries[tb]
	if e == nil {
		return
	}
	p.completedTBs++
	p.completedInstrs += tb.Progress
	delete(p.entries, tb)
	p.gen++
	switch e.state {
	case stFinishWait:
		p.finish = remove(p.finish, e)
	case stBarrierWait:
		p.barrier = remove(p.barrier, e)
	default:
		p.rem = remove(p.rem, e)
	}
	e.tb = nil
	p.entryFree = append(p.entryFree, e)
}

// OnWarpFinish implements Algorithm 1's insertFinishWarp: on the first
// finished warp, move the TB to finishWait (fast phase only) and sort its
// warps by increasing progress so the stragglers get the compute time;
// then re-sort the finishWait group.
func (p *Policy) OnWarpFinish(w *engine.Warp, _ int64) engine.Hint {
	e := p.entries[w.TB]
	if e == nil {
		return engine.Keep
	}
	if w.TB.WarpsFinished == 1 {
		if p.fastPhase() && e.state == stNoWait {
			p.rem = remove(p.rem, e)
			e.state = stFinishWait
			p.finish = append(p.finish, e)
		}
		sortWarps(e.warps, true)
		p.gen++ // list migration / warp re-sort changed the order
	}
	p.sortWaitGroup(p.finish, warpsFinished)
	return engine.Keep
}

// OnBarrierArrive implements Algorithm 1's insertBarrierWarp: on the
// first warp at the barrier, move the TB to barrierWait and sort its
// warps by increasing progress; then re-sort the barrierWait group. With
// barrier handling ablated, arrivals change nothing.
func (p *Policy) OnBarrierArrive(w *engine.Warp, _ int64) engine.Hint {
	if !p.barrierHandling {
		return engine.Keep
	}
	e := p.entries[w.TB]
	if e == nil {
		return engine.Keep
	}
	if w.TB.WarpsAtBarrier == 1 {
		if e.state == stNoWait || e.state == stFinishNoWait {
			p.rem = remove(p.rem, e)
			e.state = stBarrierWait
			p.barrier = append(p.barrier, e)
		}
		sortWarps(e.warps, true)
		p.gen++ // list migration / warp re-sort changed the order
	}
	p.sortWaitGroup(p.barrier, warpsAtBarrier)
	return engine.Keep
}

// OnBarrierRelease completes insertBarrierWarp's all-arrived case: back
// to noWait during fastTBPhase, to finishNoWait afterwards.
func (p *Policy) OnBarrierRelease(tb *engine.ThreadBlock, _ int64) engine.Hint {
	if !p.barrierHandling {
		return engine.Keep
	}
	e := p.entries[tb]
	if e == nil || e.state != stBarrierWait {
		return engine.Keep
	}
	p.barrier = remove(p.barrier, e)
	if p.fastPhase() {
		e.state = stNoWait
	} else {
		e.state = stFinishNoWait
	}
	p.rem = append(p.rem, e)
	p.gen++
	return engine.Keep
}

// sample records the current SM-0 TB priority order (highest first).
func (p *Policy) sample(cycle int64) {
	order := make([]int, 0, len(p.entries))
	for _, e := range p.finish {
		order = append(order, e.tb.Global)
	}
	for _, e := range p.barrier {
		order = append(order, e.tb.Global)
	}
	for _, e := range p.rem {
		order = append(order, e.tb.Global)
	}
	p.samples = append(p.samples, stats.OrderSample{Cycle: cycle, Order: order})
}

// OrderSamples implements gpu.OrderTracer.
func (p *Policy) OrderSamples() []stats.OrderSample { return p.samples }

// HardwareCostBytes returns PRO's extra per-SM storage per Sec. III-E:
// one 4-byte progress register per warp and per TB, a 1-byte
// warps-at-barrier/finished counter per TB and a 1-byte sorted-order
// entry per TB: (4W + 4T) + T + T bytes. For the paper's Fermi
// configuration (W=48, T=8) this is 240 bytes.
func HardwareCostBytes(cfg *config.Config) int {
	w := cfg.MaxWarpsPerSM()
	t := cfg.MaxTBsPerSM
	return 4*w + 4*t + t + t
}
