// Package repro's root bench harness regenerates every table and figure
// of the paper as a testing.B benchmark, reporting the paper's figures of
// merit through b.ReportMetric:
//
//	Table I   -> BenchmarkTableIConfig          (config construction)
//	Table II  -> BenchmarkTableIIWorkloads      (workload construction)
//	Fig. 1    -> BenchmarkFig1StallBreakdown/*  (idle/sb/pipe fractions)
//	Fig. 2    -> BenchmarkFig2Timeline/*        (TB finish-time spread)
//	Fig. 4    -> BenchmarkFig4Speedup           (geomean speedups)
//	Fig. 5    -> BenchmarkFig5StallImprovement  (geomean stall ratios)
//	Table III -> BenchmarkTableIIIStallRatios   (per-type stall ratios)
//	Table IV  -> BenchmarkTableIVTBOrder        (order-change count)
//	Sec. IV   -> BenchmarkAblationBarrierHandling (scalarProd ablation)
//	Sec. III  -> BenchmarkAblationThreshold/*   (THRESHOLD sensitivity)
//	(extra)   -> BenchmarkSimulatorThroughput   (simulated cycles/s)
//	(extra)   -> BenchmarkSMTickPipelineStall/* (ns per stalled SM-cycle)
//
// Benchmarks run on shrunk grids so `go test -bench=.` finishes in
// minutes; the full-scale numbers in EXPERIMENTS.md come from cmd/report.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/workloads"
	"repro/prosim"
)

// benchTBs is the per-grid cap for bench runs (~2 residency batches).
const benchTBs = 42

// benchKernels is the representative subset used by the suite-wide
// benches: one kernel per major behaviour class (shared-memory rounds,
// compute-bound, barrier reduction, stencil, bin scatter, streaming NN).
func benchKernels(b *testing.B) []*workloads.Workload {
	b.Helper()
	names := []string{
		"aesEncrypt128", "cenergy", "scalarProdGPU",
		"calculate_temp", "histogram256Kernel", "executeFirstLayer",
	}
	var ws []*workloads.Workload
	for _, n := range names {
		w, err := workloads.ByKernel(n)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w.Shrunk(benchTBs))
	}
	return ws
}

func runSuite(b *testing.B, scheds []string) *experiments.Suite {
	b.Helper()
	s, err := experiments.RunSuite(benchKernels(b), scheds, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkTableIConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.GTX480()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := workloads.All()
		if len(ws) != 25 {
			b.Fatal("workload inventory broken")
		}
	}
}

func BenchmarkFig1StallBreakdown(b *testing.B) {
	for _, sched := range []string{"TL", "LRR", "GTO"} {
		b.Run(sched, func(b *testing.B) {
			var rows []experiments.BreakdownRow
			for i := 0; i < b.N; i++ {
				s := runSuite(b, []string{sched})
				rows = s.ComputeFig1(sched)
			}
			var idle, sb, pipe float64
			for _, r := range rows {
				idle += r.IdleFrac
				sb += r.SBFrac
				pipe += r.PipeFrac
			}
			n := float64(len(rows))
			b.ReportMetric(idle/n, "idle_frac")
			b.ReportMetric(sb/n, "sb_frac")
			b.ReportMetric(pipe/n, "pipe_frac")
		})
	}
}

func BenchmarkFig2Timeline(b *testing.B) {
	aes, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		b.Fatal(err)
	}
	aes = aes.Shrunk(128)
	batch := aes.Launch.ResidentTBs(config.GTX480())
	for _, sched := range []string{"LRR", "PRO"} {
		b.Run(sched, func(b *testing.B) {
			var spread int64
			for i := 0; i < b.N; i++ {
				spans, _, err := experiments.Timeline(aes, sched, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				spread = finishSpread(spans, batch)
			}
			// The paper's Fig. 2 signature: LRR's first batch finishes in
			// a narrow band, PRO's is spread wide.
			b.ReportMetric(float64(spread), "batch_end_spread_cycles")
		})
	}
}

func finishSpread(spans []stats.TBSpan, batch int) int64 {
	var lo, hi int64 = 1 << 62, 0
	for _, s := range spans {
		if s.Slot >= batch {
			continue
		}
		if s.End < lo {
			lo = s.End
		}
		if s.End > hi {
			hi = s.End
		}
	}
	if hi == 0 {
		return 0
	}
	return hi - lo
}

func BenchmarkFig4Speedup(b *testing.B) {
	var f4 *experiments.Fig4
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []string{"TL", "LRR", "GTO", "PRO"})
		f4 = s.ComputeFig4()
	}
	// Paper geomeans: 1.13 over TL, 1.12 over LRR, 1.02 over GTO.
	b.ReportMetric(f4.Geomean["TL"], "geomean_vs_TL")
	b.ReportMetric(f4.Geomean["LRR"], "geomean_vs_LRR")
	b.ReportMetric(f4.Geomean["GTO"], "geomean_vs_GTO")
}

func BenchmarkFig5StallImprovement(b *testing.B) {
	var t3 *experiments.Table3
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []string{"TL", "LRR", "GTO", "PRO"})
		t3 = s.ComputeTable3()
	}
	// Paper geomean totals: 1.32 over TL, 1.19 over LRR, 1.04 over GTO.
	b.ReportMetric(t3.Geomean["TL"].Total, "stall_ratio_vs_TL")
	b.ReportMetric(t3.Geomean["LRR"].Total, "stall_ratio_vs_LRR")
	b.ReportMetric(t3.Geomean["GTO"].Total, "stall_ratio_vs_GTO")
}

func BenchmarkTableIIIStallRatios(b *testing.B) {
	var t3 *experiments.Table3
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []string{"TL", "LRR", "GTO", "PRO"})
		t3 = s.ComputeTable3()
	}
	// Per-type geomeans vs TL (paper: Pipe 0.70, Idle 2.40, SB 1.58).
	b.ReportMetric(t3.Geomean["TL"].Pipe, "pipe_vs_TL")
	b.ReportMetric(t3.Geomean["TL"].Idle, "idle_vs_TL")
	b.ReportMetric(t3.Geomean["TL"].SB, "sb_vs_TL")
	b.ReportMetric(t3.Geomean["LRR"].Idle, "idle_vs_LRR")
}

func BenchmarkTableIVTBOrder(b *testing.B) {
	aes, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		b.Fatal(err)
	}
	aes = aes.Shrunk(128)
	var changes, samples int
	for i := 0; i < b.N; i++ {
		trace, err := experiments.OrderTrace(aes, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		changes, samples = orderChanges(trace)
	}
	// The paper observes the sorted order changing 7 times over 16
	// samples for AES; report the analogous churn.
	b.ReportMetric(float64(changes), "order_changes")
	b.ReportMetric(float64(samples), "samples")
}

func orderChanges(trace []stats.OrderSample) (changes, samples int) {
	for i := 1; i < len(trace); i++ {
		if !equalInts(trace[i].Order, trace[i-1].Order) {
			changes++
		}
	}
	return changes, len(trace)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkAblationBarrierHandling(b *testing.B) {
	// Sec. IV: scalarProd improves when barrier special-handling is
	// disabled; barrier-heavy stencils should not.
	for _, kernel := range []string{"scalarProdGPU", "calculate_temp"} {
		b.Run(kernel, func(b *testing.B) {
			w, err := workloads.ByKernel(kernel)
			if err != nil {
				b.Fatal(err)
			}
			w = w.Shrunk(benchTBs)
			var ratio float64
			for i := 0; i < b.N; i++ {
				on, err := prosim.RunWorkload(w, "PRO", prosim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				off, err := prosim.RunWorkload(w, "PRO-nobar", prosim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(on.Cycles) / float64(off.Cycles)
			}
			b.ReportMetric(ratio, "nobar_speedup")
		})
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		b.Fatal(err)
	}
	w = w.Shrunk(benchTBs)
	base, err := prosim.RunWorkload(w, "PRO", prosim.Options{}) // threshold 1000
	if err != nil {
		b.Fatal(err)
	}
	for _, th := range []int64{250, 1000, 4000} {
		b.Run(thName(th), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				r, err := prosim.RunFactory(prosim.GTX480(), w.Launch,
					prosim.PRO(core.WithThreshold(th)), prosim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(float64(base.Cycles)/float64(cycles), "vs_threshold_1000")
		})
	}
}

func thName(th int64) string {
	switch th {
	case 250:
		return "threshold250"
	case 1000:
		return "threshold1000"
	default:
		return "threshold4000"
	}
}

func BenchmarkFutureWorkVariants(b *testing.B) {
	// The paper's own extensions (Sec. IV profiling, Sec. III-A
	// normalized progress) on the kernel that motivated them.
	w, err := workloads.ByKernel("scalarProdGPU")
	if err != nil {
		b.Fatal(err)
	}
	w = w.Shrunk(benchTBs)
	for _, name := range []string{"PRO", "PRO-adaptive", "PRO-norm"} {
		b.Run(name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				r, err := prosim.RunWorkload(w, name, prosim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

func BenchmarkWideGPU(b *testing.B) {
	// The clock loop on wide GPUs (2x and 4x the GTX480's 14 SMs): the
	// per-iteration cost of walking a mostly sleeping SM array.
	w, err := workloads.ByKernel("calculate_temp")
	if err != nil {
		b.Fatal(err)
	}
	w = w.Shrunk(112) // two full residency rounds on the widest GPU
	for _, sms := range []int{28, 56} {
		b.Run(fmt.Sprintf("sms%d", sms), func(b *testing.B) {
			cfg := prosim.GTX480()
			cfg.NumSMs = sms
			var simCycles int64
			for i := 0; i < b.N; i++ {
				r, err := prosim.Run(cfg, w.Launch, "PRO", prosim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				simCycles += r.Cycles
			}
			b.ReportMetric(float64(simCycles)/b.Elapsed().Seconds(), "sim_cycles/s")
		})
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Raw simulator speed: simulated SM-cycles per wall second on a
	// mid-weight kernel under PRO.
	w, err := workloads.ByKernel("calculate_temp")
	if err != nil {
		b.Fatal(err)
	}
	w = w.Shrunk(benchTBs)
	var simCycles int64
	for i := 0; i < b.N; i++ {
		r, err := prosim.RunWorkload(w, "PRO", prosim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		simCycles += r.Cycles
	}
	b.ReportMetric(float64(simCycles)/b.Elapsed().Seconds(), "sim_cycles/s")
}

// BenchmarkSMTickPipelineStall is the measurement-ladder rung for
// structural stalls: one SM holding 48 warps of a streaming-load loop,
// so the 32 L1 MSHRs stay saturated and the LD/ST unit's head
// transaction is refused on most cycles. One op is one simulated
// SM-cycle (wheel advance + memory tick + SM tick), with stall-aware
// cycle skipping on — the SM sleeps until an MSHR fill — and off, where
// it re-offers the transaction and rescans both slots every cycle.
func BenchmarkSMTickPipelineStall(b *testing.B) {
	pb := isa.NewBuilder("bench_stream")
	pb.Loop(isa.LoopSpec{Min: 1 << 20, Max: 1 << 20})
	pb.LdGlobal(1, isa.MemSpec{Pattern: isa.PatCoalesced, IterVaries: true})
	pb.FAdd(2, 1, 2)
	pb.EndLoop()
	pb.Exit()
	prog := pb.MustBuild()
	for _, tc := range []struct {
		name    string
		skipOff bool
	}{{"skip", false}, {"noskip", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := config.GTX480()
			cfg.NumSMs = 1
			cfg.DisableCycleSkip = tc.skipOff
			launch := &engine.Launch{Program: prog, GridTBs: 1 << 30, BlockThreads: 256, RegsPerThread: 16, Seed: 1}
			if err := launch.Validate(cfg); err != nil {
				b.Fatal(err)
			}
			if got := launch.ResidentTBs(cfg) * launch.WarpsPerTB(); got != 48 {
				b.Fatalf("rig holds %d resident warps, want 48", got)
			}
			wheel := timing.NewWheel()
			mem := memsys.New(cfg, wheel)
			sm := engine.NewSM(0, cfg, wheel, mem, launch, sched.NewGTO)
			for tb := 0; sm.CanAccept(); tb++ {
				sm.AssignTB(tb, 0)
			}
			cycle := int64(0)
			step := func() {
				cycle++
				wheel.Advance(cycle)
				mem.Tick(cycle)
				sm.Tick(cycle)
			}
			for i := 0; i < 2000; i++ { // fill the MSHRs and the DRAM queues
				step()
			}
			before := sm.StallTotal()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			st := sm.StallTotal()
			b.ReportMetric(float64(st.Pipeline-before.Pipeline)/float64(st.Slots()-before.Slots()), "pipeline_share")
		})
	}
}
