package engine

import "repro/internal/isa"

// Scheduler is a warp-scheduling policy for one SM. One Scheduler
// instance serves all of the SM's hardware scheduler slots (Fermi has
// two), which lets policies with SM-wide state — PRO's thread-block
// priorities — present a coherent view to both slots.
//
// The engine invokes Order once per slot per cycle — or, for policies
// implementing OrderCacher, only when the slot's order generation
// changes — and considers the returned warps in order, each at its first
// occurrence, issuing the first one that is valid, scoreboard-ready and
// has a free pipeline. A warp is owned by slot w.SchedSlot. Warps
// omitted from Order cannot issue that cycle; a policy that filters (TL
// only exposes its active set) must guarantee every live warp is
// eventually exposed, or the SM deadlocks. The engine performs all
// readiness checks itself, so Order is free to return blocked warps in
// any position.
//
// Event hooks fire exactly once per event, after the engine has updated
// the warp/TB state the hook describes. Policies that ignore an event
// simply provide an empty method (see BasePolicy).
type Scheduler interface {
	// Name identifies the policy in results.
	Name() string

	// Order appends slot's warps to dst in decreasing priority and
	// returns the extended slice. dst is a reusable scratch buffer owned
	// by the engine.
	Order(slot int, dst []*Warp, cycle int64) []*Warp

	// OnTBAssign fires when a TB becomes resident.
	OnTBAssign(tb *ThreadBlock, cycle int64)
	// OnTBRetire fires when a TB's last warp finished and its resources
	// were released.
	OnTBRetire(tb *ThreadBlock, cycle int64)
	// OnIssue fires after a warp issues in (active lanes active).
	OnIssue(w *Warp, in *isa.Instr, lanes int, cycle int64)
	// OnBarrierArrive fires when a warp blocks at a barrier (the TB's
	// WarpsAtBarrier already includes it).
	OnBarrierArrive(w *Warp, cycle int64)
	// OnBarrierRelease fires when the TB's last warp arrived and all its
	// warps were unblocked (WarpsAtBarrier already reset to 0).
	OnBarrierRelease(tb *ThreadBlock, cycle int64)
	// OnWarpFinish fires when a warp exits (the TB's WarpsFinished
	// already includes it). It does not fire again at TB retirement.
	OnWarpFinish(w *Warp, cycle int64)
}

// Factory builds a Scheduler bound to an SM. It runs during SM
// construction, before any TB is assigned.
type Factory func(sm *SM) Scheduler

// OrderCacher is an optional Scheduler extension that makes the per-slot
// order cacheable. Implementing it is a promise that Order is a pure
// function of policy state: the sequence of warps Order returns for a
// slot changes only when that slot's generation counter changes — or in
// the way the policy told the SM from OnIssue (SM.RotateOrderAfter,
// SM.ReplaceOrderHead: O(1) alternatives to a bump when an issue only
// moves where the scan starts) — and all state mutation happens in the
// event hooks or inside OrderGen itself.
//
// The engine calls OrderGen once per slot per cycle (whenever the SM has
// resident TBs), *before* consulting its cached order, and rebuilds the
// order via Order only when the returned generation differs from the
// cached one. Policies with time-driven behaviour (PRO's THRESHOLD
// re-sort) perform it inside OrderGen, so the refresh keeps firing even
// on cycles where the cache hits.
//
// Implementing OrderCacher also declares the policy safe for stall-aware
// cycle skipping: the engine may stop ticking a fully-stalled SM (no
// OrderGen/Order calls at all) until the next wake-up event. A policy
// whose timed behaviour must fire at specific cycles must additionally
// implement TimedScheduler so those cycles bound the skip.
type OrderCacher interface {
	// OrderGen returns slot's current order generation at cycle.
	OrderGen(slot int, cycle int64) uint64
}

// TimedScheduler is an optional extension for policies whose OrderGen
// refresh has time-driven effects (re-sorts on a cycle threshold,
// profiling epochs). NextTimedEvent returns the earliest future cycle at
// which such an effect fires; the engine wakes a sleeping SM no later
// than that cycle so the effect happens exactly when it would have under
// naive per-cycle ticking. Values at or before cycle are ignored.
type TimedScheduler interface {
	NextTimedEvent(cycle int64) int64
}

// BasePolicy provides no-op hook implementations so policies only
// override what they observe.
type BasePolicy struct{}

// OnTBAssign implements Scheduler.
func (BasePolicy) OnTBAssign(*ThreadBlock, int64) {}

// OnTBRetire implements Scheduler.
func (BasePolicy) OnTBRetire(*ThreadBlock, int64) {}

// OnIssue implements Scheduler.
func (BasePolicy) OnIssue(*Warp, *isa.Instr, int, int64) {}

// OnBarrierArrive implements Scheduler.
func (BasePolicy) OnBarrierArrive(*Warp, int64) {}

// OnBarrierRelease implements Scheduler.
func (BasePolicy) OnBarrierRelease(*ThreadBlock, int64) {}

// OnWarpFinish implements Scheduler.
func (BasePolicy) OnWarpFinish(*Warp, int64) {}
