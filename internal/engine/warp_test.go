package engine

import (
	"math/bits"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

// newTestSM returns an SM with no wheel, memory system or policy behind
// it: enough for warps that only exercise SIMT-stack and scoreboard
// mechanics, which need Cfg and an issue board to keep their bits on.
func newTestSM() *SM {
	sm := &SM{ID: 0, Cfg: config.GTX480()}
	sm.initBoards(sm.Cfg.MaxWarpsPerSM())
	return sm
}

// testWarp builds a warp over prog with the given block size, without a
// full SM behind it (SIMT-stack and scoreboard mechanics only need Cfg).
func testWarp(t *testing.T, prog *isa.Program, blockThreads, warpID int) *Warp {
	t.Helper()
	sm := newTestSM()
	launch := &Launch{Program: prog, GridTBs: 1, BlockThreads: blockThreads, Seed: 7}
	if err := launch.Validate(sm.Cfg); err != nil {
		t.Fatal(err)
	}
	tb := &ThreadBlock{Global: 0, Launch: launch}
	return newWarp(sm, tb, warpID, warpID, 0)
}

func mustBuild(t *testing.T, b *isa.Builder) *isa.Program {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stepBranch drives the warp's branch execution directly.
func stepBranch(w *Warp, pc int, iter int64) {
	w.execBranch(w.TB.Launch.Program.At(pc), pc, iter)
}

func TestPartialLastWarpMask(t *testing.T) {
	b := isa.NewBuilder("p")
	b.IAdd(1, 1, 1)
	b.Exit()
	prog := mustBuild(t, b)
	// 72 threads: warps of 32, 32, 8.
	w0 := testWarp(t, prog, 72, 0)
	w2 := testWarp(t, prog, 72, 2)
	if w0.ActiveLanes() != 32 {
		t.Fatalf("warp 0 lanes = %d, want 32", w0.ActiveLanes())
	}
	if w2.ActiveLanes() != 8 {
		t.Fatalf("warp 2 lanes = %d, want 8", w2.ActiveLanes())
	}
	if w2.ActiveMask() != 0xff {
		t.Fatalf("warp 2 mask = %#x, want 0xff", w2.ActiveMask())
	}
}

func TestDivergenceAndReconvergence(t *testing.T) {
	b := isa.NewBuilder("div")
	b.IfLaneLess(8) // pc 0
	b.IAdd(1, 1, 1) // pc 1 (then: lanes 0..7)
	b.Else()        // skip at pc 2
	b.IMul(2, 2, 2) // pc 3 (else: lanes 8..31)
	b.EndIf()
	b.FAdd(3, 1, 2) // pc 4 (join)
	b.Exit()
	prog := mustBuild(t, b)
	w := testWarp(t, prog, 32, 0)

	if w.PC() != 0 {
		t.Fatalf("initial PC = %d", w.PC())
	}
	stepBranch(w, 0, 0)
	// Jump side (predicate-false lanes 8..31 → else block) executes first.
	if w.PC() != 3 {
		t.Fatalf("post-branch PC = %d, want 3 (else side first)", w.PC())
	}
	if w.ActiveMask() != 0xffffff00 {
		t.Fatalf("else mask = %#x", w.ActiveMask())
	}
	w.advancePC() // execute pc 3 → reaches reconv 4 → pops to then side
	if w.PC() != 1 {
		t.Fatalf("after else side PC = %d, want 1 (then side)", w.PC())
	}
	if w.ActiveMask() != 0x000000ff {
		t.Fatalf("then mask = %#x", w.ActiveMask())
	}
	w.advancePC() // pc 1 → 2 (skip branch)
	if w.PC() != 2 {
		t.Fatalf("PC = %d, want 2", w.PC())
	}
	stepBranch(w, 2, 0) // unconditional skip to 4 → reconverged
	if w.PC() != 4 {
		t.Fatalf("join PC = %d, want 4", w.PC())
	}
	if w.ActiveMask() != 0xffffffff {
		t.Fatalf("join mask = %#x, want full", w.ActiveMask())
	}
	if len(w.stack) != 1 {
		t.Fatalf("stack depth %d after reconvergence, want 1", len(w.stack))
	}
}

func TestUniformBranchNoStackGrowth(t *testing.T) {
	b := isa.NewBuilder("uni")
	b.IfLaneLess(32) // taken by everyone → no divergence
	b.IAdd(1, 1, 1)
	b.EndIf()
	b.Exit()
	prog := mustBuild(t, b)
	w := testWarp(t, prog, 32, 0)
	stepBranch(w, 0, 0)
	if len(w.stack) != 1 {
		t.Fatalf("uniform branch grew the stack to %d", len(w.stack))
	}
	if w.PC() != 1 {
		t.Fatalf("PC = %d, want 1 (all lanes fall through)", w.PC())
	}
}

func TestLoopTripCountsAndRearm(t *testing.T) {
	b := isa.NewBuilder("loop")
	b.Loop(isa.LoopSpec{Min: 3, Max: 3}) // body: pc 0, branch: pc 1
	b.IAdd(1, 1, 1)
	b.EndLoop()
	b.Exit()
	prog := mustBuild(t, b)
	w := testWarp(t, prog, 32, 0)

	body := 0
	for iter := int64(0); w.PC() != 2; iter++ {
		if w.PC() == 0 {
			body++
			w.advancePC()
			continue
		}
		stepBranch(w, 1, iter)
		if body > 10 {
			t.Fatal("loop failed to terminate")
		}
	}
	if body != 3 {
		t.Fatalf("body executed %d times, want 3", body)
	}
	// Counters must have re-armed for a hypothetical re-entry.
	for lane := 0; lane < 32; lane++ {
		if w.loopRem[lane] != 2 {
			t.Fatalf("lane %d rem = %d after exit, want re-armed 2", lane, w.loopRem[lane])
		}
	}
}

func TestDivergentLoopExit(t *testing.T) {
	// Per-thread trips in [1,4]: lanes leave the loop at different
	// iterations; every lane must execute the body exactly its trip count.
	b := isa.NewBuilder("divloop")
	b.Loop(isa.LoopSpec{Min: 1, Max: 4, Imb: isa.ImbPerThread})
	b.IAdd(1, 1, 1)
	b.EndLoop()
	b.Exit()
	prog := mustBuild(t, b)
	w := testWarp(t, prog, 32, 0)

	want := make([]int, 32)
	for lane := 0; lane < 32; lane++ {
		want[lane] = prog.Trips(0, 7, 0, 0, lane)
	}
	got := make([]int, 32)
	for guard := 0; w.PC() != 2; guard++ {
		if guard > 1000 {
			t.Fatal("divergent loop failed to terminate")
		}
		pc := w.PC()
		mask := w.ActiveMask()
		if pc == 0 {
			for l := 0; l < 32; l++ {
				if mask&(1<<uint(l)) != 0 {
					got[l]++
				}
			}
			w.advancePC()
			continue
		}
		stepBranch(w, pc, int64(guard))
	}
	for l := 0; l < 32; l++ {
		if got[l] != want[l] {
			t.Fatalf("lane %d executed body %d times, want %d", l, got[l], want[l])
		}
	}
	if w.ActiveMask() != 0xffffffff {
		t.Fatalf("exit mask = %#x, want full reconvergence", w.ActiveMask())
	}
}

func TestScoreboardRAWAndWAW(t *testing.T) {
	b := isa.NewBuilder("sb")
	b.IAdd(1, 2, 3)
	b.Exit()
	prog := mustBuild(t, b)
	w := testWarp(t, prog, 32, 0)
	in := prog.At(0)

	if !w.ScoreboardReady(in, 100) {
		t.Fatal("fresh warp not ready")
	}
	w.setRegLatency(2, 100, 10) // RAW on r2
	if w.ScoreboardReady(in, 105) {
		t.Fatal("RAW hazard not detected")
	}
	if !w.ScoreboardReady(in, 110) {
		t.Fatal("hazard persists after latency")
	}
	w.setRegLatency(1, 200, 10) // WAW on r1
	if w.ScoreboardReady(in, 205) {
		t.Fatal("WAW hazard not detected")
	}
}

func TestLoopRemArmedPerLaneFromTrips(t *testing.T) {
	b := isa.NewBuilder("arm")
	b.Loop(isa.LoopSpec{Min: 2, Max: 9, Imb: isa.ImbPerThread})
	b.IAdd(1, 1, 1)
	b.EndLoop()
	b.Exit()
	prog := mustBuild(t, b)
	w := testWarp(t, prog, 64, 1) // second warp of a 64-thread block
	for lane := 0; lane < 32; lane++ {
		want := int32(prog.Trips(0, 7, 0, 1, lane) - 1)
		if w.loopRem[lane] != want {
			t.Fatalf("lane %d armed with %d, want %d", lane, w.loopRem[lane], want)
		}
	}
}

func TestValidReflectsLifecycle(t *testing.T) {
	b := isa.NewBuilder("v")
	b.Bar()
	b.Exit()
	prog := mustBuild(t, b)
	w := testWarp(t, prog, 32, 0)
	if w.Valid() {
		t.Fatal("warp with empty i-buffer reported Valid")
	}
	w.ibuf = 2
	if !w.Valid() {
		t.Fatal("fetched warp not Valid")
	}
	w.atBar = true
	if w.Valid() {
		t.Fatal("barrier-blocked warp reported Valid")
	}
	w.atBar = false
	w.finished = true
	if w.Valid() || w.PC() != -1 || w.ActiveMask() != 0 {
		t.Fatal("finished warp exposes live state")
	}
}

func TestActiveLanesMatchesMask(t *testing.T) {
	b := isa.NewBuilder("m")
	b.IAdd(1, 1, 1)
	b.Exit()
	prog := mustBuild(t, b)
	w := testWarp(t, prog, 50, 1) // last warp: 18 lanes
	if w.ActiveLanes() != bits.OnesCount32(w.ActiveMask()) || w.ActiveLanes() != 18 {
		t.Fatalf("lanes = %d, mask = %#x", w.ActiveLanes(), w.ActiveMask())
	}
}
