package gpu_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/stats"
)

// miniConfig is a small GPU so integration tests run in milliseconds.
func miniConfig() *config.Config {
	c := config.GTX480()
	c.NumSMs = 2
	c.L2Partitions = 2
	c.L2Size = 256 * 1024
	return c
}

// factories returns the four policies under test.
func factories() map[string]engine.Factory {
	return map[string]engine.Factory{
		"LRR": sched.NewLRR,
		"GTO": sched.NewGTO,
		"TL":  sched.NewTL,
		"PRO": core.New(),
	}
}

// barrierKernel exercises barriers, divergence, imbalance and all memory
// paths at once.
func barrierKernel(t *testing.T) *engine.Launch {
	t.Helper()
	b := isa.NewBuilder("itest")
	b.LdGlobal(1, isa.MemSpec{Pattern: isa.PatCoalesced})
	b.StShared(1, isa.MemSpec{Pattern: isa.PatCoalesced})
	b.Bar()
	b.Loop(isa.LoopSpec{Min: 2, Max: 4, Imb: isa.ImbPerThread})
	b.LdShared(2, isa.MemSpec{Pattern: isa.PatStrided, Stride: 32, IterVaries: true})
	b.IfRandom(0.5)
	b.FFMA(3, 2, 1, 3)
	b.Else()
	b.SFU(3, 2)
	b.EndIf()
	b.EndLoop()
	b.Bar()
	b.LdGlobal(4, isa.MemSpec{Pattern: isa.PatRandom, Region: 1 << 20, Space: 1})
	b.AtomGlobal(5, 4, isa.MemSpec{Pattern: isa.PatTBLocal, Region: 1 << 16, Space: 2})
	b.StGlobal(5, isa.MemSpec{Pattern: isa.PatCoalesced, Space: 3})
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Launch{
		Program:      prog,
		GridTBs:      24,
		BlockThreads: 96,
		Seed:         99,
	}
}

func runAll(t *testing.T, cfg *config.Config, launch *engine.Launch, opts gpu.Options) map[string]*stats.KernelResult {
	t.Helper()
	out := map[string]*stats.KernelResult{}
	for name, f := range factories() {
		r, err := gpu.Run(cfg, launch, f, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = r
	}
	return out
}

func TestAllSchedulersCompleteAndConserveWork(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	results := runAll(t, cfg, launch, gpu.Options{})
	ref := results["LRR"]
	if ref.ThreadInstrs == 0 || ref.WarpInstrs == 0 {
		t.Fatal("no work executed")
	}
	for name, r := range results {
		// A scheduling policy may only change WHEN instructions execute,
		// never WHAT executes.
		if r.ThreadInstrs != ref.ThreadInstrs {
			t.Errorf("%s executed %d thread-instrs, LRR executed %d — work not conserved",
				name, r.ThreadInstrs, ref.ThreadInstrs)
		}
		if r.WarpInstrs != ref.WarpInstrs {
			t.Errorf("%s issued %d warp-instrs, LRR issued %d", name, r.WarpInstrs, ref.WarpInstrs)
		}
		if r.TBCount != launch.GridTBs {
			t.Errorf("%s TBCount = %d, want %d", name, r.TBCount, launch.GridTBs)
		}
	}
}

// pipelineKernel is dominated by Pipeline stalls of every kind the SM
// sleeps through: scattered loads against full L1 MSHRs, a scattered
// store against a full store buffer, bank-conflicted shared accesses and
// bursts of independent SFU ops.
func pipelineKernel(t *testing.T) *engine.Launch {
	t.Helper()
	b := isa.NewBuilder("pipetest")
	b.Loop(isa.LoopSpec{Min: 3, Max: 3})
	b.LdGlobal(1, isa.MemSpec{Pattern: isa.PatRandom, Region: 8 << 20, IterVaries: true})
	b.LdShared(2, isa.MemSpec{Pattern: isa.PatStrided, Stride: 128})
	b.SFU(3, 0)
	b.SFU(4, 0)
	b.StGlobal(2, isa.MemSpec{Pattern: isa.PatRandom, Region: 8 << 20, Space: 1, IterVaries: true})
	b.FAdd(5, 1, 5)
	b.EndLoop()
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Launch{Program: prog, GridTBs: 12, BlockThreads: 256, Seed: 7}
}

func TestStallAccountingInvariant(t *testing.T) {
	// Every scheduler-slot cycle is classified exactly once:
	// issued + idle + scoreboard + pipeline == cycles × SMs × slots, in
	// every sample window — the dense odd interval lands sample points
	// inside SM sleeps, whose stalls are accounted in bulk — and at exit.
	// On the one-SM configuration the aggregate is the SM's own ledger.
	oneSM := miniConfig()
	oneSM.NumSMs = 1
	for _, cfg := range []*config.Config{miniConfig(), oneSM} {
		for _, launch := range []*engine.Launch{barrierKernel(t), pipelineKernel(t)} {
			for name, r := range runAll(t, cfg, launch, gpu.Options{SampleEvery: 37}) {
				name = launch.Program.Name + "/" + name
				perCycle := int64(cfg.NumSMs) * int64(cfg.SchedulersPerSM)
				if got := r.Stalls.Slots(); got != r.Cycles*perCycle {
					t.Errorf("%s: accounted %d scheduler-cycles, want %d", name, got, r.Cycles*perCycle)
				}
				if r.Stalls.Issued != r.WarpInstrs {
					t.Errorf("%s: issued slots %d != warp instrs %d", name, r.Stalls.Issued, r.WarpInstrs)
				}
				if len(r.Samples) == 0 {
					t.Fatalf("%s: no samples", name)
				}
				if launch.Program.Name == "pipetest" && r.Stalls.Pipeline < r.Stalls.Slots()/4 {
					t.Errorf("%s: only %d of %d slot-cycles are Pipeline stalls; the kernel lost its point", name, r.Stalls.Pipeline, r.Stalls.Slots())
				}
				prev := int64(0)
				for _, s := range r.Samples {
					if got, want := s.Stalls.Slots(), (s.Cycle-prev)*perCycle; got != want {
						t.Errorf("%s: window ending at cycle %d accounted %d scheduler-cycles, want %d", name, s.Cycle, got, want)
					}
					if s.Stalls.Issued != s.WarpInstrs {
						t.Errorf("%s: window ending at cycle %d: issued slots %d != warp instrs %d", name, s.Cycle, s.Stalls.Issued, s.WarpInstrs)
					}
					prev = s.Cycle
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	for name, f := range factories() {
		a, err := gpu.Run(cfg, launch, f, gpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := gpu.Run(cfg, launch, f, gpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles || a.ThreadInstrs != b.ThreadInstrs || a.Stalls != b.Stalls {
			t.Errorf("%s: repeated run diverged: %d vs %d cycles", name, a.Cycles, b.Cycles)
		}
	}
}

func TestSeedChangesExecution(t *testing.T) {
	cfg := miniConfig()
	l1 := barrierKernel(t)
	l2 := *l1
	l2.Seed = 12345
	a, err := gpu.Run(cfg, l1, sched.NewLRR, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := gpu.Run(cfg, &l2, sched.NewLRR, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ThreadInstrs == b.ThreadInstrs && a.Cycles == b.Cycles {
		t.Error("different seeds produced identical executions (suspicious for a divergent kernel)")
	}
}

func TestTimelineSpans(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	r, err := gpu.Run(cfg, launch, sched.NewLRR, gpu.Options{Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) != launch.GridTBs {
		t.Fatalf("timeline has %d spans, want %d", len(r.Timeline), launch.GridTBs)
	}
	seen := map[int]bool{}
	for _, s := range r.Timeline {
		if s.End <= s.Start {
			t.Errorf("TB %d span [%d,%d] not positive", s.TB, s.Start, s.End)
		}
		if s.End > r.Cycles {
			t.Errorf("TB %d ends at %d after kernel end %d", s.TB, s.End, r.Cycles)
		}
		if s.SM < 0 || s.SM >= cfg.NumSMs {
			t.Errorf("TB %d on bogus SM %d", s.TB, s.SM)
		}
		if seen[s.TB] {
			t.Errorf("TB %d recorded twice", s.TB)
		}
		seen[s.TB] = true
	}
	// Residency: at no point may more TBs be live on an SM than the
	// occupancy limit.
	limit := launch.ResidentTBs(cfg)
	for _, s := range r.Timeline {
		live := 0
		for _, o := range r.Timeline {
			if o.SM == s.SM && o.Start <= s.Start && o.End > s.Start {
				live++
			}
		}
		if live > limit {
			t.Fatalf("SM %d had %d live TBs at cycle %d, limit %d", s.SM, live, s.Start, limit)
		}
	}
}

func TestNoTimelineByDefault(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	r, err := gpu.Run(cfg, launch, sched.NewLRR, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) != 0 {
		t.Fatal("timeline recorded without being requested")
	}
}

func TestSampledTimeSeries(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	r, err := gpu.Run(cfg, launch, sched.NewLRR, gpu.Options{SampleEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	var instrs int64
	var slots int64
	prev := int64(0)
	for _, s := range r.Samples {
		if s.Cycle <= prev || s.Cycle%100 != 0 {
			t.Fatalf("bad sample cycle %d after %d", s.Cycle, prev)
		}
		prev = s.Cycle
		if s.WarpInstrs != s.Stalls.Issued {
			t.Fatalf("window instrs %d != issued slots %d", s.WarpInstrs, s.Stalls.Issued)
		}
		if s.ResidentTBs < 0 || s.PendingTBs < 0 {
			t.Fatal("negative occupancy")
		}
		instrs += s.WarpInstrs
		slots += s.Stalls.Slots()
		// Each window accounts exactly window × SMs × slots scheduler
		// cycles.
		want := int64(100 * cfg.NumSMs * cfg.SchedulersPerSM)
		if s.Stalls.Slots() != want {
			t.Fatalf("window slots %d, want %d", s.Stalls.Slots(), want)
		}
	}
	// Windows cover all but the final partial window.
	if instrs > r.WarpInstrs {
		t.Fatalf("sampled instrs %d exceed total %d", instrs, r.WarpInstrs)
	}
	if r.WarpInstrs-instrs > r.WarpInstrs/2 {
		t.Fatalf("samples cover too little: %d of %d", instrs, r.WarpInstrs)
	}
}

func TestWarpDivergenceMetricsPopulated(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	r, err := gpu.Run(cfg, launch, sched.NewLRR, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.BarrierEpisodes == 0 {
		t.Fatal("barrier kernel recorded no barrier episodes")
	}
	if r.AvgBarrierWait() <= 0 {
		t.Fatal("zero barrier wait with imbalanced warps")
	}
	// Per-thread imbalanced loop: warps of a TB must finish at
	// different cycles.
	if r.WarpDisparitySum == 0 {
		t.Fatal("no warp finish disparity despite per-thread imbalance")
	}
	if r.AvgWarpDisparity() < 0 {
		t.Fatal("negative disparity")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	_, err := gpu.Run(cfg, launch, sched.NewLRR, gpu.Options{MaxCycles: 10})
	if err == nil {
		t.Fatal("MaxCycles did not abort")
	}
}

func TestSingleTBGridCompletes(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	one := *launch
	one.GridTBs = 1
	for name, f := range factories() {
		r, err := gpu.Run(cfg, &one, f, gpu.Options{})
		if err != nil {
			t.Fatalf("%s on 1-TB grid: %v", name, err)
		}
		if r.Cycles == 0 {
			t.Fatalf("%s: zero cycles", name)
		}
	}
}

func TestInvalidLaunchRejected(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	bad := *launch
	bad.BlockThreads = 5000
	if _, err := gpu.Run(cfg, &bad, sched.NewLRR, gpu.Options{}); err == nil {
		t.Fatal("oversized block accepted")
	}
}

func TestMemCountersPopulated(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	r, err := gpu.Run(cfg, launch, sched.NewLRR, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mem.L1Accesses == 0 || r.Mem.L2Accesses == 0 || r.Mem.DRAMReqs == 0 {
		t.Fatalf("memory hierarchy unused: %+v", r.Mem)
	}
	if r.Mem.L1Misses > r.Mem.L1Accesses {
		t.Fatal("more L1 misses than accesses")
	}
}

func TestSchedulerNameInResult(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	r, err := gpu.Run(cfg, launch, core.New(), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheduler != "PRO" {
		t.Fatalf("Scheduler = %q, want PRO", r.Scheduler)
	}
}

func TestBreadthFirstAssignment(t *testing.T) {
	// A grid of exactly 2 TBs per SM must spread evenly at launch: with
	// round-robin assignment every SM's first two TBs are index i and
	// i+NumSMs.
	cfg := miniConfig()
	launch := barrierKernel(t)
	two := *launch
	two.GridTBs = 2 * cfg.NumSMs
	r, err := gpu.Run(cfg, &two, sched.NewLRR, gpu.Options{Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	perSM := map[int][]int{}
	for _, sp := range r.Timeline {
		perSM[sp.SM] = append(perSM[sp.SM], sp.TB)
	}
	for sm := 0; sm < cfg.NumSMs; sm++ {
		tbs := perSM[sm]
		if len(tbs) != 2 {
			t.Fatalf("SM %d ran %d TBs, want 2", sm, len(tbs))
		}
		// Breadth-first: the SM's two TBs differ by NumSMs.
		lo, hi := tbs[0], tbs[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo != cfg.NumSMs {
			t.Fatalf("SM %d got TBs %v; expected stride %d", sm, tbs, cfg.NumSMs)
		}
	}
}

func TestOrderTraceOnlyCoversSM0(t *testing.T) {
	cfg := miniConfig()
	launch := barrierKernel(t)
	r, err := gpu.Run(cfg, launch, core.New(core.WithOrderTrace(), core.WithThreshold(50)), gpu.Options{Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.OrderTrace) == 0 {
		t.Fatal("no order samples")
	}
	sm0 := map[int]bool{}
	for _, sp := range r.Timeline {
		if sp.SM == 0 {
			sm0[sp.TB] = true
		}
	}
	for _, s := range r.OrderTrace {
		for _, tb := range s.Order {
			if !sm0[tb] {
				t.Fatalf("order sample contains TB %d which never ran on SM 0", tb)
			}
		}
	}
}
