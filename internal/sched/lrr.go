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
	last []int // per slot: warp-slot index of the last issued warp
}

// NewLRR is an engine.Factory.
func NewLRR(sm *engine.SM) engine.Scheduler {
	return &LRR{sm: sm, last: make([]int, sm.Cfg.SchedulersPerSM)}
}

// Name implements engine.Scheduler.
func (s *LRR) Name() string { return "LRR" }

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

// OnIssue implements engine.Scheduler: the cursor moves past w, which
// only restarts the order.
func (s *LRR) OnIssue(w *engine.Warp, _ *isa.Instr, _ int, _ int64) engine.Hint {
	s.last[w.SchedSlot] = w.Slot
	return engine.RotateAfter
}

// OnWarpFinish implements engine.Scheduler: an Exit moves the cursor as
// any other issue does.
func (s *LRR) OnWarpFinish(w *engine.Warp, _ int64) engine.Hint {
	s.last[w.SchedSlot] = w.Slot
	return engine.RotateAfter
}
