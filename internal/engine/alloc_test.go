package engine_test

// Steady-state allocation regression tests. The issue loop is the
// simulator's hot path: once an SM's thread blocks are resident and
// warps are fetching and issuing, a core cycle must not allocate —
// every buffer it needs (warp orders, memory transactions, event
// callbacks) is pooled or pre-bound. A regression here multiplies
// across millions of simulated cycles, so it is pinned by test rather
// than left to the benchmarks.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sched"
	"repro/internal/timing"
)

// steadyProg is a long ALU-only loop: warps issue (and periodically
// refetch) for far longer than the measurement window, so every
// measured cycle exercises the issue path in steady state.
func steadyProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("alloc-steady")
	b.Loop(isa.LoopSpec{Min: 1 << 20, Max: 1 << 20})
	b.IAdd(1, 0, 0)
	b.IAdd(2, 0, 0)
	b.EndLoop()
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// uncachedOrder wraps a policy so that the SM rebuilds its order on
// every slot-cycle: OrderGen runs the wrapped policy's OrderGen and
// returns the cycle, a generation no earlier slot-cycle returned. Every
// other method is the wrapped policy's.
type uncachedOrder struct{ engine.Scheduler }

func (u uncachedOrder) OrderGen(slot int, cycle int64) uint64 {
	u.Scheduler.OrderGen(slot, cycle)
	return uint64(cycle)
}

func TestSteadyStateCycleDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		naive bool
	}{
		{"fast-path", false},
		{"naive-path", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.GTX480()
			cfg.DisableCycleSkip = tc.naive
			factory := engine.Factory(sched.NewGTO)
			if tc.naive {
				factory = func(sm *engine.SM) engine.Scheduler { return uncachedOrder{sched.NewGTO(sm)} }
			}

			prog := steadyProg(t)
			wheel := timing.NewWheel()
			mem := memsys.New(cfg, wheel)
			launch := &engine.Launch{Program: prog, GridTBs: 1, BlockThreads: 256, Seed: 1}
			if err := launch.Validate(cfg); err != nil {
				t.Fatal(err)
			}
			sm := engine.NewSM(0, cfg, wheel, mem, launch, factory)
			sm.AssignTB(0, 0)

			cycle := int64(0)
			step := func() {
				cycle++
				wheel.Advance(cycle)
				mem.Tick(cycle)
				sm.Tick(cycle)
			}
			// Warm up past one full timing-wheel lap so every reusable
			// buffer (wheel buckets, order caches, i-buffer refills) has
			// reached its steady capacity.
			for i := 0; i < timing.Horizon+512; i++ {
				step()
			}
			avg := testing.AllocsPerRun(400, step)
			if sm.Done() {
				t.Fatal("kernel finished during measurement; not steady state")
			}
			if avg > 0.05 {
				t.Errorf("steady-state cycle allocates %.2f objects; want 0", avg)
			}
		})
	}
}

// churnProg is a short ALU loop: thread blocks retire after a few
// hundred cycles, so a long run continuously retires and launches TBs.
func churnProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("alloc-churn")
	b.Loop(isa.LoopSpec{Min: 32, Max: 32})
	b.IAdd(1, 0, 0)
	b.EndLoop()
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTBChurnDoesNotAllocate pins the warp/TB pool: once the free list
// has seen one retirement per resident slot, every later TB launch must
// reuse a pooled block — the steady state of a grid with far more TBs
// than SM residency. The naive (pooling-off) configuration allocates on
// every launch, which is what the differential tests cover; here only
// the pooled path is measured.
func TestTBChurnDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory engine.Factory
	}{
		{"LRR", sched.NewLRR},
		{"GTO", sched.NewGTO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.GTX480()
			prog := churnProg(t)
			wheel := timing.NewWheel()
			mem := memsys.New(cfg, wheel)
			launch := &engine.Launch{Program: prog, GridTBs: 1 << 20, BlockThreads: 256, Seed: 1}
			if err := launch.Validate(cfg); err != nil {
				t.Fatal(err)
			}
			sm := engine.NewSM(0, cfg, wheel, mem, launch, tc.factory)

			next := 0
			cycle := int64(0)
			step := func() {
				cycle++
				wheel.Advance(cycle)
				mem.Tick(cycle)
				for sm.CanAccept() && next < launch.GridTBs {
					sm.AssignTB(next, cycle)
					next++
				}
				sm.Tick(cycle)
			}
			// One measured run is one full churn: simulate until at least
			// one TB retires and its replacement launches. Measuring per
			// churn rather than per cycle keeps the launch-path allocations
			// above AllocsPerRun's integer truncation. (A launch is also
			// exactly where the pool is exercised.)
			churn := func() {
				for target := next + 1; next < target; {
					step()
				}
			}
			// Warm up past a full wheel lap plus several TB generations so
			// the pool holds a drained, reusable block for every slot.
			for i := 0; i < timing.Horizon+4096; i++ {
				step()
			}
			avg := testing.AllocsPerRun(20, churn)
			if sm.Done() {
				t.Fatal("grid finished during measurement; not steady churn")
			}
			if avg > 0.05 {
				t.Errorf("TB churn allocates %.2f objects per launch; want 0", avg)
			}
		})
	}
}
