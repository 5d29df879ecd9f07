package sched

import (
	"repro/internal/engine"
	"repro/internal/isa"
)

// DefaultActiveSet is the per-slot active-set size of the two-level
// scheduler, matching GPGPU-Sim 3.2.2's two_level_active default of six
// warps per scheduler unit.
const DefaultActiveSet = 6

// TL is the Two-Level warp scheduler (Narasiman et al., MICRO-2011) as
// realized by GPGPU-Sim's two_level_active scheduler: each scheduler slot
// keeps a small active set scheduled round-robin; a warp that issues a
// long-latency (global memory) instruction, blocks at a barrier, or
// finishes is demoted to the pending queue and the next pending warp is
// promoted. Groups of warps therefore drift apart in progress and reach
// long-latency instructions at different times — but, as the paper
// argues, in a coarser and less targeted way than PRO.
type TL struct {
	engine.BasePolicy
	setSize   int
	active    [][]*engine.Warp // per slot, round-robin order
	pending   [][]*engine.Warp // per slot, FIFO
	lastIssue []int            // per slot: index into active of last issue
	// blocked tracks warps known (from events) to be barrier-blocked;
	// refill must not promote them or they would wedge an active slot.
	blocked map[*engine.Warp]bool
}

// NewTL is an engine.Factory with the default active-set size.
func NewTL(sm *engine.SM) engine.Scheduler { return NewTLWithSize(DefaultActiveSet)(sm) }

// NewTLWithSize returns a factory for a two-level scheduler with the
// given per-slot active-set size.
func NewTLWithSize(size int) engine.Factory {
	if size < 1 {
		size = 1
	}
	return func(sm *engine.SM) engine.Scheduler {
		n := sm.Cfg.SchedulersPerSM
		return &TL{
			setSize:   size,
			active:    make([][]*engine.Warp, n),
			pending:   make([][]*engine.Warp, n),
			lastIssue: make([]int, n),
			blocked:   make(map[*engine.Warp]bool),
		}
	}
}

// Name implements engine.Scheduler.
func (s *TL) Name() string { return "TL" }

// Order implements engine.Scheduler: only the active set is exposed,
// round-robin from just after the last issued position. Liveness: every
// event that can block an active warp indefinitely (long-latency issue,
// barrier, finish) demotes it and promotes a pending warp, so pending
// warps always surface.
func (s *TL) Order(slot int, dst []*engine.Warp, _ int64) []*engine.Warp {
	act := s.active[slot]
	n := len(act)
	if n == 0 {
		return dst
	}
	start := (s.lastIssue[slot] + 1) % n
	return append(append(dst, act[start:]...), act[:start]...)
}

// OnIssue implements engine.Scheduler: update the round-robin cursor and
// demote the warp on long-latency instructions. Only a demotion changes
// the slot's membership; a moved cursor restarts the cached order.
func (s *TL) OnIssue(w *engine.Warp, in *isa.Instr, _ int, _ int64) engine.Hint {
	slot := w.SchedSlot
	for i, a := range s.active[slot] {
		if a == w {
			s.lastIssue[slot] = i
			break
		}
	}
	if in.Op.IsGlobalMem() {
		s.demote(w)
		return engine.Rebuild
	}
	return engine.RotateAfter
}

// OnTBAssign implements engine.Scheduler: new warps queue as pending and
// fill free active slots.
func (s *TL) OnTBAssign(tb *engine.ThreadBlock, _ int64) {
	for _, w := range tb.Warps {
		s.pending[w.SchedSlot] = append(s.pending[w.SchedSlot], w)
	}
	for slot := range s.active {
		s.refill(slot)
	}
}

// OnTBRetire implements engine.Scheduler.
func (s *TL) OnTBRetire(tb *engine.ThreadBlock, _ int64) {
	for _, w := range tb.Warps {
		delete(s.blocked, w)
	}
	for slot := range s.active {
		s.active[slot] = removeTB(s.active[slot], tb)
		s.pending[slot] = removeTB(s.pending[slot], tb)
		s.refill(slot)
	}
}

// OnBarrierArrive implements engine.Scheduler: a warp waiting for its
// siblings leaves the active set so others can run.
func (s *TL) OnBarrierArrive(w *engine.Warp, _ int64) engine.Hint {
	s.blocked[w] = true
	s.demote(w)
	return engine.Rebuild
}

// OnBarrierRelease implements engine.Scheduler: released warps are
// eligible again, so refill the active sets (they may have been left
// underfull while every pending warp was blocked).
func (s *TL) OnBarrierRelease(tb *engine.ThreadBlock, _ int64) engine.Hint {
	for _, w := range tb.Warps {
		delete(s.blocked, w)
	}
	for slot := range s.active {
		s.refill(slot)
	}
	return engine.Rebuild
}

// OnWarpFinish implements engine.Scheduler: finished warps leave both
// structures.
func (s *TL) OnWarpFinish(w *engine.Warp, _ int64) engine.Hint {
	delete(s.blocked, w)
	slot := w.SchedSlot
	s.active[slot] = removeWarp(s.active[slot], w)
	s.pending[slot] = removeWarp(s.pending[slot], w)
	s.refill(slot)
	return engine.Rebuild
}

// demote moves w from active to the pending tail and promotes a
// replacement.
func (s *TL) demote(w *engine.Warp) {
	slot := w.SchedSlot
	before := len(s.active[slot])
	s.active[slot] = removeWarp(s.active[slot], w)
	if len(s.active[slot]) != before {
		s.pending[slot] = append(s.pending[slot], w)
	}
	s.refill(slot)
}

// refill promotes pending warps into free active slots, oldest first,
// skipping warps known to be blocked (barrier) or finished — promoting a
// barrier-blocked warp would wedge an active slot until its siblings,
// possibly stuck in pending, release it.
func (s *TL) refill(slot int) {
	for len(s.active[slot]) < s.setSize {
		pick := -1
		for i, w := range s.pending[slot] {
			if !s.blocked[w] && !w.Finished() {
				pick = i
				break
			}
		}
		if pick < 0 {
			break
		}
		w := s.pending[slot][pick]
		s.pending[slot] = append(s.pending[slot][:pick], s.pending[slot][pick+1:]...)
		s.active[slot] = append(s.active[slot], w)
	}
	if s.lastIssue[slot] >= len(s.active[slot]) {
		s.lastIssue[slot] = 0
	}
}

func removeWarp(list []*engine.Warp, w *engine.Warp) []*engine.Warp {
	for i, x := range list {
		if x == w {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

func removeTB(list []*engine.Warp, tb *engine.ThreadBlock) []*engine.Warp {
	kept := list[:0]
	for _, w := range list {
		if w.TB != tb {
			kept = append(kept, w)
		}
	}
	return kept
}
