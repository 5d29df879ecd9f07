package sched

import (
	"sort"

	"repro/internal/engine"
	"repro/internal/isa"
)

// This file implements simplified versions of two schedulers from the
// paper's related-work section (Sec. V), useful as additional comparison
// points:
//
//   - CAWS (Lee & Wu, PACT-2014) prioritizes *critical* warps to reduce
//     the execution-time disparity among warps of the same thread block.
//     CAWSLite approximates warp criticality by least progress: the warp
//     that has executed the fewest thread-instructions is assumed to
//     have the most work left and is scheduled first.
//
//   - OWL (Jog et al., ASPLOS-2013) makes the scheduler CTA-aware: a
//     small group of CTAs gets persistent priority so its working set
//     stays cache-resident, instead of round-robining over all CTAs.
//     OWLLite orders thread blocks by assignment age (oldest group
//     first) and round-robins inside the prioritized group.
//
// Both are deliberately reduced to their scheduling essence — the cache
// -bypass and prefetch machinery of the originals is out of scope — and
// are labeled "-lite" in results.

// CAWSLite is the criticality-aware policy.
type CAWSLite struct {
	engine.BasePolicy
	sm *engine.SM
}

// NewCAWSLite is an engine.Factory.
func NewCAWSLite(sm *engine.SM) engine.Scheduler { return &CAWSLite{sm: sm} }

// Name implements engine.Scheduler.
func (s *CAWSLite) Name() string { return "CAWS-lite" }

// Order implements engine.Scheduler: warps by ascending progress (the
// least-progressed warp is the critical one), ties by slot for
// determinism.
func (s *CAWSLite) Order(slot int, dst []*engine.Warp, _ int64) []*engine.Warp {
	dst = s.sm.ScanLive(slot, 0, dst)
	sort.SliceStable(dst, func(i, j int) bool {
		if dst[i].Progress != dst[j].Progress {
			return dst[i].Progress < dst[j].Progress
		}
		return dst[i].Slot < dst[j].Slot
	})
	return dst
}

// OnIssue implements engine.Scheduler: the issue raised w's progress,
// which may move it back in its slot's order. (An Exit needs nothing: the
// finished warp leaves the scan, and no other warp's progress moved.)
func (s *CAWSLite) OnIssue(*engine.Warp, *isa.Instr, int, int64) engine.Hint {
	return engine.Rebuild
}

// OWLLite is the CTA-prioritizing policy.
type OWLLite struct {
	engine.BasePolicy
	sm *engine.SM
	// groupSize is how many TBs share top priority.
	groupSize int
	last      []int // per slot: warp slot of last issue (intra-group RR)
}

// DefaultOWLGroup is the prioritized-CTA group size.
const DefaultOWLGroup = 2

// NewOWLLite is an engine.Factory with the default group size.
func NewOWLLite(sm *engine.SM) engine.Scheduler {
	return &OWLLite{sm: sm, groupSize: DefaultOWLGroup, last: make([]int, sm.Cfg.SchedulersPerSM)}
}

// Name implements engine.Scheduler.
func (s *OWLLite) Name() string { return "OWL-lite" }

// Order implements engine.Scheduler: TBs sorted by assignment age; the
// oldest groupSize TBs form the priority group, scheduled round-robin;
// remaining TBs follow in age order. Always-prioritizing the same CTAs
// concentrates cache reuse (OWL's goal) and, as a side effect, finishes
// them sooner.
func (s *OWLLite) Order(slot int, dst []*engine.Warp, _ int64) []*engine.Warp {
	tbs := make([]*engine.ThreadBlock, 0, len(s.sm.TBSlots))
	for _, tb := range s.sm.TBSlots {
		if tb != nil {
			tbs = append(tbs, tb)
		}
	}
	sort.SliceStable(tbs, func(i, j int) bool { return tbs[i].LaunchSeq < tbs[j].LaunchSeq })

	appendTB := func(tb *engine.ThreadBlock, rotate bool) {
		warps := make([]*engine.Warp, 0, len(tb.Warps))
		for _, w := range tb.Warps {
			if w.SchedSlot == slot && !w.Finished() {
				warps = append(warps, w)
			}
		}
		if rotate && len(warps) > 1 {
			// Round-robin within the priority group: start after the
			// last-issued warp slot.
			start := 0
			for i, w := range warps {
				if w.Slot > s.last[slot] {
					start = i
					break
				}
			}
			warps = append(warps[start:], warps[:start]...)
		}
		dst = append(dst, warps...)
	}
	for i, tb := range tbs {
		appendTB(tb, i < s.groupSize)
	}
	return dst
}

// OnIssue implements engine.Scheduler: a moved cursor re-rotates every
// priority-group TB of the slot.
func (s *OWLLite) OnIssue(w *engine.Warp, _ *isa.Instr, _ int, _ int64) engine.Hint {
	return s.moveCursor(w)
}

// OnWarpFinish implements engine.Scheduler: an Exit moves the cursor as
// any other issue does.
func (s *OWLLite) OnWarpFinish(w *engine.Warp, _ int64) engine.Hint {
	return s.moveCursor(w)
}

func (s *OWLLite) moveCursor(w *engine.Warp) engine.Hint {
	if s.last[w.SchedSlot] == w.Slot {
		return engine.Keep
	}
	s.last[w.SchedSlot] = w.Slot
	return engine.Rebuild
}
