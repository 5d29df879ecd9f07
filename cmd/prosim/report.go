package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/viz"
	"repro/internal/workloads"
)

// report runs the paper's entire evaluation — all 25 Table II kernels
// under TL, LRR, GTO and PRO — and emits every table and figure: Fig. 1
// (stall composition), Fig. 2 (TB timelines), Fig. 4 (speedups), Fig. 5
// / Table III (stall improvements) and Table IV (TB order trace).
//
//	prosim report                 # full scaled grids, all cores
//	prosim report -maxtbs 100     # quick pass
//	prosim report -out results    # also write each artifact to results/
//	prosim report -jobs 1         # serial (bit-identical to the parallel run)
//	prosim report -cache .simcache  # memoize results; warm re-runs are instant
//	prosim report -daemon 127.0.0.1:9753  # run on a prosimd daemon instead
//	prosim report -workers a:9753,b:9753  # fan out across a prosimd cluster
//
// With -daemon the simulations execute on a running prosimd instance
// (sharing its warm cache and deduping against other clients; its jobs
// queue FIFO with theirs, and a cached result needs no worker slot, so
// a warm report returns at once even beside a running sweep); -jobs and
// -cache then configure the daemon, not this process, and are ignored.
// With -workers they fan out across several prosimd instances through a
// coordinator that feeds every worker slot from one queue (retrying on
// worker loss); -cache is then the shared merge cache, which the workers
// should use too; a re-run after an interruption simulates only what
// the cache still lacks. Nothing evicts cache entries (the full grid is
// about 100 of them, 82 KB): to bound a cache, delete its directory or
// any entry, which the next run recomputes.
//
// Progress and timing go to stderr; stdout carries only the artifacts.
func report(args []string) {
	h := cli.New("prosim report", cli.Spec{Remote: true})
	outDir := h.Flags.String("out", "", "directory to write artifact files into (optional)")
	h.Parse(args)

	writeFile := func(name, content string) {
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			h.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, name), []byte(content), 0o644); err != nil {
			h.Fatal(err)
		}
	}

	emit := func(name, content string) {
		fmt.Println(content)
		writeFile(name, content)
	}

	start := time.Now()
	run := h.Runner()

	scheds := []string{"TL", "LRR", "GTO", "PRO"}
	aes := h.Workload("aesEncrypt128") // Fig. 2 and Table IV
	suite, err := experiments.RunSuite(workloads.All(), scheds, h.MaxTBs, run)
	if err != nil {
		h.Fatal(err)
	}

	for _, sched := range experiments.BaselineOrder {
		rows := suite.ComputeFig1(sched)
		emit("fig1_"+sched+".txt", experiments.FormatFig1(sched, rows))
		labels := make([]string, len(rows))
		parts := make([][]float64, len(rows))
		for i, r := range rows {
			labels[i] = r.App
			parts[i] = []float64{r.SBFrac, r.IdleFrac, r.PipeFrac}
		}
		writeFile("fig1_"+sched+".svg", viz.StackedShares(
			"Fig. 1 ("+sched+") — stall composition", labels,
			[]string{"scoreboard", "idle", "pipeline"}, parts))
	}
	f4 := suite.ComputeFig4()
	emit("fig4.txt", experiments.FormatFig4(f4))
	{
		labels := make([]string, len(f4.Rows))
		series := []viz.Series{{Name: "vs TL"}, {Name: "vs LRR"}, {Name: "vs GTO"}}
		for i, r := range f4.Rows {
			labels[i] = r.Kernel
			series[0].Values = append(series[0].Values, r.Over["TL"])
			series[1].Values = append(series[1].Values, r.Over["LRR"])
			series[2].Values = append(series[2].Values, r.Over["GTO"])
		}
		writeFile("fig4.svg", viz.GroupedBars("Fig. 4 — PRO speedup over baselines", labels, series, 1.0))
	}
	t3 := suite.ComputeTable3()
	emit("table3.txt", experiments.FormatTable3(t3))
	emit("fig5.txt", experiments.FormatFig5(t3))
	{
		labels := make([]string, len(t3.Rows))
		series := []viz.Series{{Name: "vs TL"}, {Name: "vs LRR"}, {Name: "vs GTO"}}
		for i, r := range t3.Rows {
			labels[i] = r.App
			series[0].Values = append(series[0].Values, r.Over["TL"].Total)
			series[1].Values = append(series[1].Values, r.Over["LRR"].Total)
			series[2].Values = append(series[2].Values, r.Over["GTO"].Total)
		}
		writeFile("fig5.svg", viz.GroupedBars("Fig. 5 — total stall ratio (baseline/PRO)", labels, series, 1.0))
	}

	// Fig. 2: AES timelines under LRR and PRO on SM 0.
	for _, sched := range []string{"LRR", "PRO"} {
		spans, r, err := experiments.Timeline(aes, sched, 0, run)
		if err != nil {
			h.Fatal(err)
		}
		emit("fig2_"+sched+".txt", experiments.FormatTimeline(sched, 0, spans, r.Cycles))
		writeFile("fig2_"+sched+".svg", viz.Timeline(
			fmt.Sprintf("Fig. 2 — AES thread blocks on SM 0 (%s)", sched), spans, r.Cycles))
	}

	// Table IV: AES under PRO with order tracing, first batch of TBs on
	// SM 0 (the paper shows 16 samples for its first batch of 6 TBs).
	samples, err := experiments.OrderTrace(aes, 0, run)
	if err != nil {
		h.Fatal(err)
	}
	emit("table4.txt", experiments.FormatOrderTrace(samples, 16))

	done := fmt.Sprintf("report completed in %.1fs", time.Since(start).Seconds())
	switch {
	case h.Engine != nil:
		done += fmt.Sprintf(" (%d jobs: %d simulated, %d cache hits)",
			h.Engine.Completed(), h.Engine.Simulated(), h.Engine.Replayed())
	case h.Client != nil:
		if st, err := h.Client.Stats(context.Background()); err == nil {
			done += fmt.Sprintf(" (daemon lifetime: %d jobs, %d simulated, %d replayed)",
				st.Completed, st.Simulated, st.Replayed)
		}
	}
	fmt.Fprintln(os.Stderr, done)
	h.Finish()
}
