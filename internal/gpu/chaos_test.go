package gpu_test

import (
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// chaos is an adversarial scheduling policy: every cycle it presents the
// slot's warps in a pseudo-random order (and randomly hides a prefix of
// them). The engine must tolerate ANY such policy — completing the
// kernel, conserving work, and keeping the stall accounting consistent —
// because the Scheduler interface promises policies only control
// priority, never correctness.
type chaos struct {
	engine.BasePolicy
	sm  *engine.SM
	rng *xrand.RNG
}

func newChaos(seed uint64) engine.Factory {
	return func(sm *engine.SM) engine.Scheduler {
		return &chaos{sm: sm, rng: xrand.NewRNG(seed ^ uint64(sm.ID)<<32)}
	}
}

func (c *chaos) Name() string { return "chaos" }

// OrderGen and NextTimedEvent declare an order that changes every cycle:
// the engine rebuilds it on every scan and never lets the SM sleep past
// a cycle, so each re-roll is seen.
func (c *chaos) OrderGen(_ int, cycle int64) uint64 { return uint64(cycle) }
func (c *chaos) NextTimedEvent(cycle int64) int64   { return cycle + 1 }

func (c *chaos) Order(slot int, dst []*engine.Warp, _ int64) []*engine.Warp {
	start := len(dst)
	for _, w := range c.sm.WarpSlots {
		if w != nil && w.SchedSlot == slot && !w.Finished() {
			dst = append(dst, w)
		}
	}
	own := dst[start:]
	// Fisher-Yates with the deterministic RNG.
	for i := len(own) - 1; i > 0; i-- {
		j := c.rng.Intn(i + 1)
		own[i], own[j] = own[j], own[i]
	}
	// Occasionally hide a random suffix — a policy is allowed to expose
	// only part of its warps in a cycle. Hiding everything forever would
	// deadlock, but the RNG re-rolls each cycle so exposure is fair.
	if len(own) > 1 && c.rng.Intn(4) == 0 {
		keep := 1 + c.rng.Intn(len(own))
		dst = dst[:start+keep]
	}
	return dst
}

func TestChaosMonkeySchedulerPreservesInvariants(t *testing.T) {
	launch := barrierKernel(t)
	cfg := miniConfig()
	ref, err := gpu.Run(cfg, launch, sched.NewLRR, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r, err := gpu.Run(cfg, launch, newChaos(seed), gpu.Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if r.ThreadInstrs != ref.ThreadInstrs {
			t.Logf("seed %d: work not conserved (%d vs %d)", seed, r.ThreadInstrs, ref.ThreadInstrs)
			return false
		}
		slots := r.Cycles * int64(cfg.NumSMs) * int64(cfg.SchedulersPerSM)
		if r.Stalls.Slots() != slots {
			t.Logf("seed %d: accounting broken", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosOnDivergentMemoryKernel drives the adversary over the memory
// system and SIMT divergence simultaneously.
func TestChaosOnDivergentMemoryKernel(t *testing.T) {
	b := isa.NewBuilder("chaos-mem")
	b.Loop(isa.LoopSpec{Min: 1, Max: 6, Imb: isa.ImbPerThread})
	b.LdGlobal(1, isa.MemSpec{Pattern: isa.PatRandom, Region: 1 << 21, IterVaries: true})
	b.IfRandom(0.5)
	b.AtomGlobal(2, 1, isa.MemSpec{Pattern: isa.PatTBLocal, Region: 1 << 16, Space: 1})
	b.EndIf()
	b.StGlobal(1, isa.MemSpec{Pattern: isa.PatStrided, Stride: 256, Space: 2})
	b.EndLoop()
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := miniConfig()
	launch := &engine.Launch{Program: prog, GridTBs: 12, BlockThreads: 128, Seed: 77}
	ref, err := gpu.Run(cfg, launch, sched.NewGTO, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		r, err := gpu.Run(cfg, launch, newChaos(seed), gpu.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.ThreadInstrs != ref.ThreadInstrs {
			t.Fatalf("seed %d: work not conserved", seed)
		}
	}
}
