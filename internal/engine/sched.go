package engine

import "repro/internal/isa"

// Scheduler is a warp-scheduling policy for one SM, and the whole of
// the contract between a policy and the engine: the order, what
// invalidates it, and the next timed effect. One Scheduler instance
// serves all of the SM's hardware scheduler slots (Fermi has two), which
// lets policies with SM-wide state — PRO's thread-block priorities —
// present a coherent view to both slots.
//
// The engine keeps one cached order per slot and considers its warps in
// order, each at its first occurrence, issuing the first one that is
// valid, scoreboard-ready and has a free pipeline. A warp is owned by
// slot w.SchedSlot. Warps omitted from Order cannot issue; a policy that
// filters (TL only exposes its active set) must guarantee every live
// warp is eventually exposed, or the SM deadlocks. The engine performs
// all readiness checks itself, so Order is free to return blocked warps
// in any position.
//
// Order must be a pure function of policy state, and that state may
// change only inside the hooks and OrderGen. The engine rebuilds a
// slot's cached order through Order exactly when a TB was assigned or
// retired (it drops every slot's order after OnTBAssign and OnTBRetire
// itself), when a hook returned Rebuild or a hint the engine cannot
// honour, or when OrderGen returns a generation other than at the last
// rebuild. A policy therefore needs OrderGen only for changes no hook
// reports (PRO's threshold re-sorts).
//
// Event hooks fire exactly once per event, after the engine has updated
// the warp/TB state the hook describes. Policies that ignore an event
// simply inherit BasePolicy's method. An Exit is not an OnIssue: it is
// reported by OnWarpFinish, then, for the TB's last warp, by OnTBRetire.
// After OnTBRetire no hook names the TB's warps, so a policy must not act
// on a pointer to one it still holds: with pooling the engine reuses the
// TB and its warps for a later launch.
type Scheduler interface {
	// Name identifies the policy in results.
	Name() string

	// Order appends slot's warps to dst in decreasing priority and
	// returns the extended slice. dst is a reusable scratch buffer owned
	// by the engine.
	Order(slot int, dst []*Warp, cycle int64) []*Warp

	// OrderGen returns slot's order generation at cycle. The engine
	// calls it once per slot per cycle while the SM has resident TBs and
	// is awake, before consulting its cached order, so a policy with
	// time-driven behaviour (PRO's THRESHOLD re-sort) performs it here
	// and the refresh fires even on cycles where the cache hits.
	OrderGen(slot int, cycle int64) uint64
	// NextTimedEvent returns the earliest cycle after cycle at which
	// OrderGen does something time-driven. The engine may stop ticking a
	// fully-stalled SM until its next wake-up event, and wakes it no
	// later than this cycle, so the effect happens exactly when it would
	// under per-cycle ticking. Values at or before cycle are ignored.
	NextTimedEvent(cycle int64) int64

	// OnTBAssign fires when a TB becomes resident.
	OnTBAssign(tb *ThreadBlock, cycle int64)
	// OnTBRetire fires when a TB's last warp finished and its resources
	// were released.
	OnTBRetire(tb *ThreadBlock, cycle int64)
	// OnIssue fires after a warp issues in (active lanes active), for
	// every instruction but Exit; w is never finished. The hint is about
	// w's slot.
	OnIssue(w *Warp, in *isa.Instr, lanes int, cycle int64) Hint
	// OnBarrierArrive fires when a warp blocks at a barrier (the TB's
	// WarpsAtBarrier already includes it). The hint is about w's slot.
	OnBarrierArrive(w *Warp, cycle int64) Hint
	// OnBarrierRelease fires when the TB's last warp arrived and all its
	// warps were unblocked (WarpsAtBarrier already reset to 0). Any hint
	// but Keep rebuilds every slot's order.
	OnBarrierRelease(tb *ThreadBlock, cycle int64) Hint
	// OnWarpFinish fires when a warp issues its Exit (the TB's
	// WarpsFinished already includes it), before OnTBRetire when it is
	// the TB's last warp. It does not fire again at TB retirement. The
	// hint is about w's slot.
	OnWarpFinish(w *Warp, cycle int64) Hint
}

// Hint is what a hook says about the cached order of the hooked warp's
// slot. Every hook fires while that warp issues, so a hint names no
// warp: it can only describe the one being issued.
type Hint uint8

const (
	// Keep: Order would return what it returned before the hook.
	Keep Hint = iota
	// RotateAfter: Order is now the cached order restarted just after
	// the issuing warp (a round-robin cursor moved).
	RotateAfter
	// NewHead: Order is now the cached order with the issuing warp in
	// place of the head at position 0, the old head keeping its later
	// place (GTO's greedy warp). The engine honours it only over an
	// unrotated order whose head recurs, and rebuilds otherwise.
	NewHead
	// Rebuild: the order changed in a way no other hint describes.
	Rebuild
)

// Factory builds a Scheduler bound to an SM. It runs during SM
// construction, before any TB is assigned.
type Factory func(sm *SM) Scheduler

// OrderCacher and TimedScheduler were optional interfaces, found by type
// assertion, that are now part of Scheduler.
type (
	// Deprecated: every Scheduler has OrderGen.
	OrderCacher interface {
		OrderGen(slot int, cycle int64) uint64
	}
	// Deprecated: every Scheduler has NextTimedEvent.
	TimedScheduler interface{ NextTimedEvent(cycle int64) int64 }
)

// BasePolicy provides the defaults, so policies only override what they
// observe: a generation that never moves, no timed effect, and hooks
// that keep the order.
type BasePolicy struct{}

// OrderGen implements Scheduler.
func (BasePolicy) OrderGen(int, int64) uint64 { return 0 }

// NextTimedEvent implements Scheduler: never.
func (BasePolicy) NextTimedEvent(int64) int64 { return neverWake }

// OnTBAssign implements Scheduler.
func (BasePolicy) OnTBAssign(*ThreadBlock, int64) {}

// OnTBRetire implements Scheduler.
func (BasePolicy) OnTBRetire(*ThreadBlock, int64) {}

// OnIssue implements Scheduler.
func (BasePolicy) OnIssue(*Warp, *isa.Instr, int, int64) Hint { return Keep }

// OnBarrierArrive implements Scheduler.
func (BasePolicy) OnBarrierArrive(*Warp, int64) Hint { return Keep }

// OnBarrierRelease implements Scheduler.
func (BasePolicy) OnBarrierRelease(*ThreadBlock, int64) Hint { return Keep }

// OnWarpFinish implements Scheduler.
func (BasePolicy) OnWarpFinish(*Warp, int64) Hint { return Keep }
