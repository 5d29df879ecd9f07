package sched

import (
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/timing"
)

func testSM(t *testing.T, factory engine.Factory, blockThreads int) *engine.SM {
	t.Helper()
	b := isa.NewBuilder("sched-test")
	b.LdGlobal(1, isa.MemSpec{Pattern: isa.PatCoalesced})
	b.Bar()
	b.IAdd(2, 1, 1)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.GTX480()
	wheel := timing.NewWheel()
	mem := memsys.New(cfg, wheel)
	launch := &engine.Launch{Program: prog, GridTBs: 32, BlockThreads: blockThreads, Seed: 1}
	if err := launch.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	return engine.NewSM(0, cfg, wheel, mem, launch, factory)
}

func globalLoad() *isa.Instr {
	return &isa.Instr{Op: isa.OpLdGlobal, Dst: 1, Mem: &isa.MemSpec{Pattern: isa.PatCoalesced}}
}

func aluInstr() *isa.Instr {
	return &isa.Instr{Op: isa.OpIAdd, Dst: 2}
}

// --- LRR ---

func TestLRROrderRotatesAfterIssue(t *testing.T) {
	sm := testSM(t, NewLRR, 256) // 8 warps; slot 0 owns 0,2,4,6
	tb := sm.AssignTB(0, 1)
	s := sm.Sched.(*LRR)
	o1 := s.Order(0, nil, 2)
	if o1[0] != tb.Warps[1*0] { // first in slot order after initial pointer 0 is warp slot 1? slot0 owns even slots; pointer 0 → start at 1 → first even is 2
		_ = o1
	}
	// Issue from the first ordered warp and check rotation.
	first := o1[0]
	s.OnIssue(first, aluInstr(), 32, 2)
	o2 := s.Order(0, nil, 3)
	if o2[0] == first {
		t.Fatal("LRR did not rotate past the issued warp")
	}
	if o2[len(o2)-1] != first {
		t.Fatal("issued warp should now be last")
	}
}

func TestLRROrderContainsExactlySlotWarps(t *testing.T) {
	sm := testSM(t, NewLRR, 256)
	tb := sm.AssignTB(0, 1)
	s := sm.Sched.(*LRR)
	for slot := 0; slot < 2; slot++ {
		order := s.Order(slot, nil, 2)
		want := 0
		for _, w := range tb.Warps {
			if w.SchedSlot == slot {
				want++
			}
		}
		if len(order) != want {
			t.Fatalf("slot %d order has %d warps, want %d", slot, len(order), want)
		}
		for _, w := range order {
			if w.SchedSlot != slot {
				t.Fatal("foreign warp in order")
			}
		}
	}
}

// --- GTO ---

func TestGTOGreedyFirstThenOldest(t *testing.T) {
	sm := testSM(t, NewGTO, 256)
	tb0 := sm.AssignTB(0, 1)
	s := sm.Sched.(*GTO)
	// Age: make a second TB assigned later.
	sm.Wheel.Advance(5)
	tb1 := sm.AssignTB(1, 5)

	// No greedy yet: order is oldest first (tb0's warps precede tb1's).
	o := s.Order(0, nil, 6)
	if o[0].TB != tb0 {
		t.Fatal("oldest warp not first before any issue")
	}
	// Issue from a tb1 warp: it becomes greedy and must lead.
	var w1 *engine.Warp
	for _, w := range tb1.Warps {
		if w.SchedSlot == 0 {
			w1 = w
			break
		}
	}
	s.OnIssue(w1, aluInstr(), 32, 6)
	// The engine considers a warp at its first occurrence only (the
	// greedy warp recurs at its age position), so that is the order.
	o = firstOccurrences(s.Order(0, nil, 7))
	if o[0] != w1 {
		t.Fatal("greedy warp not first")
	}
	var want []*engine.Warp
	for _, tb := range []*engine.ThreadBlock{tb0, tb1} {
		for _, w := range tb.Warps {
			if w.SchedSlot == 0 && w != w1 {
				want = append(want, w)
			}
		}
	}
	if len(o) != 1+len(want) {
		t.Fatalf("order has %d distinct warps, want %d", len(o), 1+len(want))
	}
	for i, w := range want {
		if o[1+i] != w {
			t.Fatalf("position %d after the greedy warp is not oldest-first", i)
		}
	}
}

// firstOccurrences drops every later duplicate from order.
func firstOccurrences(order []*engine.Warp) []*engine.Warp {
	seen := make(map[*engine.Warp]bool)
	var out []*engine.Warp
	for _, w := range order {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func TestGTORetireDropsWarpsAndGreedy(t *testing.T) {
	sm := testSM(t, NewGTO, 256)
	tb := sm.AssignTB(0, 1)
	s := sm.Sched.(*GTO)
	var w *engine.Warp
	for _, x := range tb.Warps {
		if x.SchedSlot == 0 {
			w = x
			break
		}
	}
	s.OnIssue(w, aluInstr(), 32, 2)
	s.OnTBRetire(tb, 3)
	if got := s.Order(0, nil, 4); len(got) != 0 {
		t.Fatalf("order after retire has %d warps", len(got))
	}
}

// --- TL ---

func TestTLActiveSetBounded(t *testing.T) {
	sm := testSM(t, NewTLWithSize(4), 1536) // 48 warps → 24 per slot
	sm.AssignTB(0, 1)
	s := sm.Sched.(*TL)
	o := s.Order(0, nil, 2)
	if len(o) != 4 {
		t.Fatalf("active set exposes %d warps, want 4", len(o))
	}
}

func TestTLDemotesOnGlobalLoadIssue(t *testing.T) {
	sm := testSM(t, NewTLWithSize(4), 1536)
	sm.AssignTB(0, 1)
	s := sm.Sched.(*TL)
	o := s.Order(0, nil, 2)
	victim := o[0]
	s.OnIssue(victim, globalLoad(), 32, 2)
	o2 := s.Order(0, nil, 3)
	for _, w := range o2 {
		if w == victim {
			t.Fatal("warp not demoted after long-latency issue")
		}
	}
	if len(o2) != 4 {
		t.Fatalf("active set not refilled: %d warps", len(o2))
	}
}

func TestTLDoesNotDemoteOnALUIssue(t *testing.T) {
	sm := testSM(t, NewTLWithSize(4), 1536)
	sm.AssignTB(0, 1)
	s := sm.Sched.(*TL)
	o := s.Order(0, nil, 2)
	w := o[0]
	s.OnIssue(w, aluInstr(), 32, 2)
	found := false
	for _, x := range s.Order(0, nil, 3) {
		if x == w {
			found = true
		}
	}
	if !found {
		t.Fatal("ALU issue demoted the warp")
	}
}

func TestTLEveryWarpEventuallyExposed(t *testing.T) {
	// Repeatedly demote the head: all 24 slot-0 warps must cycle through
	// the active set (liveness).
	sm := testSM(t, NewTLWithSize(4), 1536)
	tb := sm.AssignTB(0, 1)
	s := sm.Sched.(*TL)
	seen := map[*engine.Warp]bool{}
	for i := 0; i < 200; i++ {
		o := s.Order(0, nil, int64(i+2))
		if len(o) == 0 {
			t.Fatal("active set drained")
		}
		seen[o[0]] = true
		s.OnIssue(o[0], globalLoad(), 32, int64(i+2))
	}
	want := 0
	for _, w := range tb.Warps {
		if w.SchedSlot == 0 {
			want++
		}
	}
	if len(seen) != want {
		t.Fatalf("only %d of %d warps ever surfaced", len(seen), want)
	}
}

func TestTLBarrierDemotionAndRelease(t *testing.T) {
	sm := testSM(t, NewTLWithSize(4), 1536)
	tb := sm.AssignTB(0, 1)
	s := sm.Sched.(*TL)
	o := s.Order(0, nil, 2)
	w := o[0]
	w.TB.WarpsAtBarrier++ // engine would do this before the hook
	s.OnBarrierArrive(w, 2)
	for _, x := range s.Order(0, nil, 3) {
		if x == w {
			t.Fatal("barrier-blocked warp stayed active")
		}
	}
	// Refill must never promote blocked warps: block everything.
	for _, x := range tb.Warps {
		if x.SchedSlot != 0 || x == w {
			continue
		}
		tb.WarpsAtBarrier++
		s.OnBarrierArrive(x, 3)
	}
	if got := s.Order(0, nil, 4); len(got) != 0 {
		t.Fatalf("active set holds %d blocked warps", len(got))
	}
	tb.WarpsAtBarrier = 0
	s.OnBarrierRelease(tb, 5)
	if got := s.Order(0, nil, 6); len(got) != 4 {
		t.Fatalf("release refilled %d warps, want 4", len(got))
	}
}

func TestTLFinishRemovesWarp(t *testing.T) {
	sm := testSM(t, NewTLWithSize(4), 256)
	tb := sm.AssignTB(0, 1)
	s := sm.Sched.(*TL)
	var w *engine.Warp
	for _, x := range tb.Warps {
		if x.SchedSlot == 0 {
			w = x
			break
		}
	}
	s.OnWarpFinish(w, 2)
	for _, x := range s.Order(0, nil, 3) {
		if x == w {
			t.Fatal("finished warp still exposed")
		}
	}
}

// --- CAWS-lite / OWL-lite ---

func TestCAWSLiteOrdersByLeastProgress(t *testing.T) {
	sm := testSM(t, NewCAWSLite, 256)
	tb := sm.AssignTB(0, 1)
	s := sm.Sched.(*CAWSLite)
	var slot0 []*engine.Warp
	for _, w := range tb.Warps {
		if w.SchedSlot == 0 {
			slot0 = append(slot0, w)
		}
	}
	for i, w := range slot0 {
		w.Progress = int64(100 * (i + 1)) // 100, 200, 300, ...
	}
	slot0[1].Progress = 10 // the critical warp
	o := s.Order(0, nil, 2)
	if o[0] != slot0[1] {
		t.Fatal("CAWS did not prioritize the least-progressed (critical) warp")
	}
	for i := 1; i < len(o); i++ {
		if o[i].Progress < o[i-1].Progress {
			t.Fatal("CAWS order not ascending by progress")
		}
	}
}

func TestOWLLitePrioritizesOldestCTAs(t *testing.T) {
	sm := testSM(t, NewOWLLite, 256)
	tb0 := sm.AssignTB(0, 1)
	tb1 := sm.AssignTB(1, 2)
	tb2 := sm.AssignTB(2, 3)
	s := sm.Sched.(*OWLLite)
	o := s.Order(0, nil, 4)
	// Oldest group (tb0, tb1) warps first; tb2 last.
	seenTB2At := -1
	lastTB01 := -1
	for i, w := range o {
		switch w.TB {
		case tb2:
			if seenTB2At < 0 {
				seenTB2At = i
			}
		case tb0, tb1:
			lastTB01 = i
		}
	}
	if seenTB2At >= 0 && lastTB01 > seenTB2At {
		t.Fatal("OWL-lite interleaved a young CTA before the priority group finished")
	}
}

func TestOWLLiteRotatesWithinGroup(t *testing.T) {
	sm := testSM(t, NewOWLLite, 256)
	tb := sm.AssignTB(0, 1)
	s := sm.Sched.(*OWLLite)
	o1 := s.Order(0, nil, 2)
	first := o1[0]
	s.OnIssue(first, aluInstr(), 32, 2)
	o2 := s.Order(0, nil, 3)
	if o2[0] == first {
		t.Fatal("OWL-lite did not rotate after issue within the priority group")
	}
	_ = tb
}

func TestNames(t *testing.T) {
	sm := testSM(t, NewLRR, 256)
	if sm.Sched.Name() != "LRR" {
		t.Fatal("LRR name")
	}
	if testSM(t, NewGTO, 256).Sched.Name() != "GTO" {
		t.Fatal("GTO name")
	}
	if testSM(t, NewTL, 256).Sched.Name() != "TL" {
		t.Fatal("TL name")
	}
}
