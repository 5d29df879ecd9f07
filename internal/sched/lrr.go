// Package sched implements the baseline warp-scheduling policies the
// paper compares against: Loose Round Robin (LRR), Greedy-Then-Oldest
// (GTO) and the Two-Level scheduler (TL) of Narasiman et al.
// (MICRO-2011), as configured in GPGPU-Sim 3.2.2.
package sched

import (
	"repro/internal/engine"
	"repro/internal/isa"
)

// LRR is Loose Round Robin: every warp has equal priority and each
// scheduler slot resumes its scan just after the warp it issued last, so
// all warps make roughly equal progress — the behaviour whose batching
// pathologies (Sec. II of the paper) PRO attacks.
type LRR struct {
	engine.BasePolicy
	sm   *engine.SM
	last []int    // per slot: warp-slot index of the last issued warp
	gens []uint64 // per slot: order generation
}

// NewLRR is an engine.Factory.
func NewLRR(sm *engine.SM) engine.Scheduler {
	return &LRR{
		sm:   sm,
		last: make([]int, sm.Cfg.SchedulersPerSM),
		gens: make([]uint64, sm.Cfg.SchedulersPerSM),
	}
}

// Name implements engine.Scheduler.
func (s *LRR) Name() string { return "LRR" }

// OrderGen implements engine.OrderCacher: the order's membership changes
// when the SM's warp-slot population does; a moving round-robin cursor
// only restarts it (RotateOrderAfter).
func (s *LRR) OrderGen(slot int, _ int64) uint64 { return s.gens[slot] }

// Order implements engine.Scheduler: all live warps of slot, starting
// just after the last issued warp's slot. The rotated scan runs on the
// slot's packed live mask (64 warps per word) via ScanLive.
func (s *LRR) Order(slot int, dst []*engine.Warp, _ int64) []*engine.Warp {
	n := len(s.sm.WarpSlots)
	if n == 0 {
		return dst
	}
	return s.sm.ScanLive(slot, (s.last[slot]+1)%n, dst)
}

// OnIssue implements engine.Scheduler.
func (s *LRR) OnIssue(w *engine.Warp, _ *isa.Instr, _ int, _ int64) {
	s.last[w.SchedSlot] = w.Slot
	s.sm.RotateOrderAfter(w)
}

// OnWarpFinish implements engine.Scheduler: an Exit moves the cursor as
// any other issue does.
func (s *LRR) OnWarpFinish(w *engine.Warp, _ int64) {
	s.last[w.SchedSlot] = w.Slot
	s.sm.RotateOrderAfter(w)
}

// OnTBAssign implements engine.Scheduler: Order reads sm.WarpSlots live,
// so a residency change invalidates every slot's cached order.
func (s *LRR) OnTBAssign(*engine.ThreadBlock, int64) {
	for i := range s.gens {
		s.gens[i]++
	}
}

// OnTBRetire implements engine.Scheduler.
func (s *LRR) OnTBRetire(*engine.ThreadBlock, int64) {
	for i := range s.gens {
		s.gens[i]++
	}
}
