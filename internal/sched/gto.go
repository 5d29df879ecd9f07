package sched

import (
	"repro/internal/engine"
	"repro/internal/isa"
)

// GTO is Greedy-Then-Oldest: each scheduler slot keeps issuing from the
// same warp until it stalls, then falls back to the oldest warp (by TB
// assignment time, then warp slot). The greedy warp races ahead, which
// spreads progress unevenly and hides long latencies — the strongest of
// the paper's three baselines.
type GTO struct {
	engine.BasePolicy
	sm     *engine.SM
	greedy []*engine.Warp   // per slot
	aged   [][]*engine.Warp // per slot, oldest first
	gens   []uint64         // per slot: order generation
}

// NewGTO is an engine.Factory.
func NewGTO(sm *engine.SM) engine.Scheduler {
	return &GTO{
		sm:     sm,
		greedy: make([]*engine.Warp, sm.Cfg.SchedulersPerSM),
		aged:   make([][]*engine.Warp, sm.Cfg.SchedulersPerSM),
		gens:   make([]uint64, sm.Cfg.SchedulersPerSM),
	}
}

// Name implements engine.Scheduler.
func (s *GTO) Name() string { return "GTO" }

// OrderGen implements engine.OrderCacher: the generation moves when the
// slot's age list changes membership or its head appears or disappears;
// one greedy warp succeeding another only swaps the head
// (ReplaceOrderHead).
func (s *GTO) OrderGen(slot int, _ int64) uint64 { return s.gens[slot] }

// bumpAll invalidates every slot's cached order.
func (s *GTO) bumpAll() {
	for i := range s.gens {
		s.gens[i]++
	}
}

// Order implements engine.Scheduler: greedy warp first, then all warps
// oldest-first. The greedy warp recurs at its age position; the engine
// considers a warp at its first occurrence only.
func (s *GTO) Order(slot int, dst []*engine.Warp, _ int64) []*engine.Warp {
	if g := s.greedy[slot]; g != nil {
		dst = append(dst, g)
	}
	return append(dst, s.aged[slot]...)
}

// OnIssue implements engine.Scheduler: the issuing warp becomes greedy.
func (s *GTO) OnIssue(w *engine.Warp, _ *isa.Instr, _ int, _ int64) {
	old := s.greedy[w.SchedSlot]
	if old == w {
		return
	}
	s.greedy[w.SchedSlot] = w
	if old == nil {
		s.gens[w.SchedSlot]++ // Order had no head to replace
	} else {
		s.sm.ReplaceOrderHead(old, w)
	}
}

// OnWarpFinish implements engine.Scheduler: an Exit ends the slot's
// greedy run, whichever warp held it, and the order loses its head. A
// finished warp is therefore never greedy, and the TB's retirement finds
// none of its warps here.
func (s *GTO) OnWarpFinish(w *engine.Warp, _ int64) {
	if s.greedy[w.SchedSlot] != nil {
		s.greedy[w.SchedSlot] = nil
		s.gens[w.SchedSlot]++
	}
}

// OnTBAssign implements engine.Scheduler: new warps join their slot's age
// list (they are the youngest; a stable sort keeps earlier TBs first).
func (s *GTO) OnTBAssign(tb *engine.ThreadBlock, _ int64) {
	s.bumpAll()
	for _, w := range tb.Warps {
		s.aged[w.SchedSlot] = append(s.aged[w.SchedSlot], w)
	}
	for slot := range s.aged {
		list := s.aged[slot]
		// Insertion sort by (SpawnCycle, Slot). The list is already
		// sorted except for the warps just appended, and unlike
		// sort.SliceStable this allocates nothing — OnTBAssign is on the
		// TB launch path, which must stay allocation-free under TB churn.
		// (Slot is unique within a list, so the key is a total order and
		// the result matches the stable sort it replaces.)
		for i := 1; i < len(list); i++ {
			w := list[i]
			j := i - 1
			for ; j >= 0; j-- {
				p := list[j]
				if p.SpawnCycle < w.SpawnCycle ||
					(p.SpawnCycle == w.SpawnCycle && p.Slot < w.Slot) {
					break
				}
				list[j+1] = p
			}
			list[j+1] = w
		}
	}
}

// OnTBRetire implements engine.Scheduler: drop the TB's warps.
func (s *GTO) OnTBRetire(tb *engine.ThreadBlock, _ int64) {
	s.bumpAll()
	for slot := range s.aged {
		kept := s.aged[slot][:0]
		for _, w := range s.aged[slot] {
			if w.TB != tb {
				kept = append(kept, w)
			}
		}
		s.aged[slot] = kept
	}
}
