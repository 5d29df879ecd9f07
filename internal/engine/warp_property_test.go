package engine

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/xrand"
)

// This file checks the SIMT reconvergence machinery against an
// independent per-thread reference interpreter on randomly generated
// structured programs: for every lane, the number of times the lane
// executes each class of instruction under warp-stack execution must
// equal sequential per-thread execution. Random programs use only
// deterministic predicates (lane thresholds, trip counts, unconditional
// skips) so the reference is exact.

// genProgram builds a random structured program from rng: nested
// if/else/loop regions around ALU instructions.
func genProgram(rng *xrand.RNG, name string) *isa.Program {
	b := isa.NewBuilder(name)
	var emit func(depth, budget int) int
	emit = func(depth, budget int) int {
		used := 0
		for used < budget {
			switch choice := rng.Intn(6); {
			case choice <= 2 || depth >= 3:
				b.IAdd(1, 1, 1)
				used++
			case choice == 3:
				b.IfLaneLess(1 + rng.Intn(32))
				used += emit(depth+1, 1+rng.Intn(budget-used)) + 1
				if rng.Intn(2) == 0 {
					b.Else()
					used += emit(depth+1, 1+rng.Intn(2)) + 1
				}
				b.EndIf()
			case choice == 4:
				min := 1 + rng.Intn(3)
				span := rng.Intn(4)
				imb := []isa.Imbalance{isa.ImbNone, isa.ImbPerTB, isa.ImbPerWarp, isa.ImbPerThread}[rng.Intn(4)]
				b.Loop(isa.LoopSpec{Min: min, Max: min + span, Imb: imb})
				used += emit(depth+1, 1+rng.Intn(3)) + 1
				b.EndLoop()
			default:
				b.IMul(2, 2, 1)
				used++
			}
		}
		return used
	}
	emit(0, 4+rng.Intn(8))
	b.Exit()
	return b.MustBuild()
}

// refLaneInstrs interprets prog for one lane sequentially and returns
// its dynamic instruction count.
func refLaneInstrs(prog *isa.Program, kseed uint64, tb, warpInTB, lane int, maxSteps int) int {
	rem := make([]int, len(prog.Loops))
	for i := range rem {
		rem[i] = prog.Trips(i, kseed, tb, warpInTB, lane) - 1
	}
	pc, count := 0, 0
	for steps := 0; steps < maxSteps; steps++ {
		in := prog.At(pc)
		count++
		switch in.Op {
		case isa.OpExit:
			return count
		case isa.OpBra:
			br := in.Branch
			switch br.Kind {
			case isa.BrLoop:
				if rem[br.LoopID] > 0 {
					rem[br.LoopID]--
					pc = br.Target
				} else {
					rem[br.LoopID] = prog.Trips(br.LoopID, kseed, tb, warpInTB, lane) - 1
					pc++
				}
			case isa.BrLaneLess:
				if lane < br.N {
					pc++ // predicate true: fall through
				} else {
					pc = br.Target
				}
			case isa.BrWarpRandom:
				// Only P=0 (unconditional skip) appears in generated
				// programs, via Else.
				pc = br.Target
			default:
				panic("unexpected branch kind in generated program")
			}
		default:
			pc++
		}
	}
	return -1 // did not terminate
}

// warpLaneInstrs executes prog on the SIMT stack and returns per-lane
// dynamic instruction counts.
func warpLaneInstrs(t *testing.T, prog *isa.Program, kseed uint64, maxSteps int) ([32]int, *Warp) {
	t.Helper()
	var counts [32]int
	launch := &Launch{Program: prog, GridTBs: 1, BlockThreads: 32, Seed: kseed}
	sm := newTestSM()
	tb := &ThreadBlock{Global: 0, Launch: launch}
	w := newWarp(sm, tb, 0, 0, 0)
	for steps := 0; steps < maxSteps; steps++ {
		if len(w.stack) == 0 {
			t.Fatal("stack emptied without exit")
		}
		pc := w.PC()
		mask := w.ActiveMask()
		for l := 0; l < 32; l++ {
			if mask&(1<<uint(l)) != 0 {
				counts[l]++
			}
		}
		in := prog.At(pc)
		switch in.Op {
		case isa.OpExit:
			if mask != 0xffffffff {
				t.Fatalf("exit with mask %#x; threads lost", mask)
			}
			if len(w.stack) != 1 {
				t.Fatalf("exit with stack depth %d", len(w.stack))
			}
			return counts, w
		case isa.OpBra:
			iter := int64(w.visits[pc])
			w.visits[pc]++
			w.execBranch(in, pc, iter)
		default:
			w.advancePC()
		}
	}
	t.Fatal("warp did not reach exit")
	return counts, w
}

const propMaxSteps = 500_000

// TestPropertySIMTMatchesPerThreadReference is the core SIMT property:
// warp-stack execution is observationally equivalent, per lane, to
// sequential per-thread execution.
func TestPropertySIMTMatchesPerThreadReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.NewRNG(seed | 1)
		prog := genProgram(rng, "prop")
		kseed := rng.Next()
		got, _ := warpLaneInstrs(t, prog, kseed, propMaxSteps)
		for lane := 0; lane < 32; lane++ {
			want := refLaneInstrs(prog, kseed, 0, 0, lane, propMaxSteps)
			if want < 0 {
				t.Logf("reference did not terminate (seed %d)", seed)
				return false
			}
			if got[lane] != want {
				t.Logf("seed %d lane %d: warp executed %d, reference %d\nprogram:\n%s",
					seed, lane, got[lane], want, prog)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLoopCountersReArm checks that after a full warp execution,
// every loop's counters are re-armed to trips-1 — the invariant that
// makes nested loop re-entry correct.
func TestPropertyLoopCountersReArm(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.NewRNG(seed | 1)
		prog := genProgram(rng, "rearm")
		kseed := rng.Next()
		_, w := warpLaneInstrs(t, prog, kseed, propMaxSteps)
		for loopID := range prog.Loops {
			for lane := 0; lane < 32; lane++ {
				want := int32(prog.Trips(loopID, kseed, 0, 0, lane) - 1)
				if w.loopRem[loopID*32+lane] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStackBounded checks the reconvergence stack never grows
// beyond a small structural bound (divergence nesting, not iteration
// count).
func TestPropertyStackBounded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.NewRNG(seed | 1)
		prog := genProgram(rng, "depth")
		kseed := rng.Next()
		launch := &Launch{Program: prog, GridTBs: 1, BlockThreads: 32, Seed: kseed}
		sm := newTestSM()
		tb := &ThreadBlock{Global: 0, Launch: launch}
		w := newWarp(sm, tb, 0, 0, 0)
		maxDepth := 0
		for steps := 0; steps < propMaxSteps; steps++ {
			if len(w.stack) > maxDepth {
				maxDepth = len(w.stack)
			}
			pc := w.PC()
			in := prog.At(pc)
			if in.Op == isa.OpExit {
				// 2 entries per divergence level; programs nest ≤ 4 deep
				// (3 structural + loop-exit transients).
				return maxDepth <= 16
			}
			if in.Op == isa.OpBra {
				iter := int64(w.visits[pc])
				w.visits[pc]++
				w.execBranch(in, pc, iter)
			} else {
				w.advancePC()
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
