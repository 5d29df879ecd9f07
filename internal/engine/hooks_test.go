package engine

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/timing"
)

// hookRecorder is a policy that checks the hook contract as the engine
// calls it: OnIssue never receives a finished warp, and once a TB's
// OnTBRetire fired no hook names the TB or its warps until a pooled
// launch hands them out again through OnTBAssign.
type hookRecorder struct {
	passAll
	t       *testing.T
	retired map[*Warp]bool
	seen    map[*Warp]bool
	reused  int // warps OnTBAssign handed out a second time
	exits   int
}

func (p *hookRecorder) check(hook string, w *Warp) {
	if p.retired[w] {
		p.t.Fatalf("%s received warp %d of TB %d after the TB retired", hook, w.IDInTB, w.TB.Global)
	}
}

func (p *hookRecorder) OnTBAssign(tb *ThreadBlock, _ int64) {
	for _, w := range tb.Warps {
		if p.seen[w] {
			p.reused++
		}
		p.seen[w] = true
		delete(p.retired, w)
	}
}

func (p *hookRecorder) OnTBRetire(tb *ThreadBlock, _ int64) {
	for _, w := range tb.Warps {
		p.check("OnTBRetire", w)
		if !w.Finished() {
			p.t.Fatalf("TB %d retired with warp %d unfinished", tb.Global, w.IDInTB)
		}
		p.retired[w] = true
	}
}

func (p *hookRecorder) OnIssue(w *Warp, in *isa.Instr, _ int, _ int64) {
	p.check("OnIssue", w)
	if w.Finished() || in.Op == isa.OpExit {
		p.t.Fatalf("OnIssue received finished warp %d of TB %d (op %v)", w.IDInTB, w.TB.Global, in.Op)
	}
}

func (p *hookRecorder) OnBarrierArrive(w *Warp, _ int64) { p.check("OnBarrierArrive", w) }

func (p *hookRecorder) OnBarrierRelease(tb *ThreadBlock, _ int64) {
	for _, w := range tb.Warps {
		p.check("OnBarrierRelease", w)
	}
}

func (p *hookRecorder) OnWarpFinish(w *Warp, _ int64) {
	p.check("OnWarpFinish", w)
	p.exits++
}

// TestHooksNeverNameARetiredWarp streams TBs of uneven length through
// one SM with warp pooling on, so retired TBs and their warps are
// reused, and checks every hook call against the contract in the
// Scheduler doc comment. A policy holding a warp pointer past the TB's
// retirement would act on whichever TB the pool gave the warp to next.
func TestHooksNeverNameARetiredWarp(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		b.Loop(isa.LoopSpec{Min: 1, Max: 12, Imb: isa.ImbPerTB})
		b.IAdd(1, 1, 1)
		b.Bar()
		b.FMul(2, 1, 1)
		b.EndLoop()
		b.Exit()
	})
	const grid = 24
	cfg := config.GTX480()
	wheel := timing.NewWheel()
	mem := memsys.New(cfg, wheel)
	launch := &Launch{Program: prog, GridTBs: grid, BlockThreads: 256, Seed: 3}
	if err := launch.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	rec := &hookRecorder{t: t, retired: map[*Warp]bool{}, seen: map[*Warp]bool{}}
	r := &rig{cfg: cfg, wheel: wheel, mem: mem}
	r.sm = NewSM(0, cfg, wheel, mem, launch, func(sm *SM) Scheduler {
		rec.sm = sm
		return rec
	})
	if !r.sm.poolOn {
		t.Fatal("warp pooling is off")
	}
	next := 0
	for budget := 0; next < grid || !r.sm.Done(); budget++ {
		if budget > 1_000_000 {
			t.Fatalf("grid did not finish; %d of %d TBs assigned", next, grid)
		}
		for next < grid && r.sm.CanAccept() {
			r.sm.AssignTB(next, r.cycle)
			next++
		}
		r.step()
	}
	if want := grid * r.sm.Launch.WarpsPerTB(); rec.exits != want {
		t.Fatalf("OnWarpFinish fired %d times, want %d", rec.exits, want)
	}
	if rec.reused == 0 {
		t.Fatal("no warp was reused: the pool never ran")
	}
}
