// Command report runs the paper's entire evaluation — all 25 Table II
// kernels under TL, LRR, GTO and PRO — and emits every table and figure:
// Fig. 1 (stall composition), Fig. 2 (TB timelines), Fig. 4 (speedups),
// Fig. 5 / Table III (stall improvements) and Table IV (TB order trace).
//
// Usage:
//
//	report                 # full scaled grids, all cores
//	report -maxtbs 100     # quick pass
//	report -out results    # also write each artifact to results/
//	report -jobs 1         # serial (bit-identical to the parallel run)
//	report -cache .simcache  # memoize results; warm re-runs are instant
//	report -daemon 127.0.0.1:9753  # run on a prosimd daemon instead
//	report -workers a:9753,b:9753  # fan out across a prosimd cluster
//	report -shard 2/3 -cache /shared/simcache  # run slice 2 of 3 only
//
// With -daemon the simulations execute on a running prosimd instance
// (sharing its warm cache and deduping against other clients); -jobs and
// -cache then configure the daemon, not this process, and are ignored.
// With -workers they fan out across several prosimd instances through a
// work-stealing coordinator (retrying on worker loss); -cache is then
// the coordinator's shared merge cache. With -shard i/n the tool runs
// only its deterministic slice of the full job list (by result-cache
// key) and emits no artifacts — point n machines at a shared cache, one
// per shard, then run once without -shard to assemble everything from
// the cache without simulating.
//
// Progress and timing go to stderr; stdout carries only the artifacts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/viz"
	"repro/internal/workloads"
	"repro/prosim"
)

func main() {
	maxTBs := flag.Int("maxtbs", 0, "shrink grids to at most this many TBs (0 = full)")
	outDir := flag.String("out", "", "directory to write artifact files into (optional)")
	quiet := flag.Bool("quiet", false, "suppress per-run progress")
	njobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers")
	cacheDir := flag.String("cache", "", "result-cache directory (optional; makes warm re-runs instant)")
	cacheGC := flag.String("cache-gc", "", "after the run, evict least-recently-used cache entries down to this size (e.g. 256M; needs -cache)")
	daemonAddr := flag.String("daemon", "", "run simulations on a prosimd daemon at this address (host:port or unix:/path) instead of locally")
	workersFlag := flag.String("workers", "", "fan simulations out across these comma-separated prosimd addresses (work-stealing coordinator; -cache is the shared merge cache)")
	shardSpec := flag.String("shard", "", "run only slice i/n of the full job list (e.g. 2/3) against a shared cache and emit no artifacts")
	priority := flag.String("priority", "interactive", "scheduling class on the daemon/workers (interactive report runs preempt bulk sweeps)")
	token := flag.String("token", "", "tenant token sent as X-Prosim-Token to tokened daemons")
	traceOut := flag.String("trace-out", "", "write NDJSON job-lifecycle spans to this file (\"-\" = stderr; local runs only)")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	log, err := logCfg.Setup()
	if err != nil {
		fatal(err)
	}
	if *daemonAddr != "" && *workersFlag != "" {
		fatal(fmt.Errorf("-daemon and -workers are mutually exclusive"))
	}

	emit := func(name, content string) {
		fmt.Println(content)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(filepath.Join(*outDir, name), []byte(content), 0o644); err != nil {
				fatal(err)
			}
		}
	}

	start := time.Now()
	var progress func(jobs.Event)
	if !*quiet {
		progress = jobs.PrintProgress(os.Stderr)
	}
	var run jobs.Runner
	var eng *jobs.Engine
	var client *daemon.Client
	if *daemonAddr != "" {
		var err error
		client, err = daemon.Dial(*daemonAddr)
		if err != nil {
			fatal(err)
		}
		client.Progress = progress
		client.Priority = *priority
		client.Token = *token
		run = client
	} else if *workersFlag != "" {
		var addrs []string
		for _, a := range strings.Split(*workersFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		coord, err := cluster.New(cluster.Config{
			Workers:  addrs,
			CacheDir: *cacheDir,
			Priority: *priority,
			Token:    *token,
			Log:      log,
		})
		if err != nil {
			fatal(err)
		}
		defer coord.Close()
		coord.OnProgress = progress
		run = coord
	} else {
		var err error
		eng, err = jobs.New(*njobs, *cacheDir, progress)
		if err != nil {
			fatal(err)
		}
		if *traceOut != "" {
			tr, err := obs.OpenTrace(*traceOut)
			if err != nil {
				fatal(err)
			}
			defer tr.Close()
			eng.Trace = tr
		}
		run = eng
	}

	scheds := []string{"TL", "LRR", "GTO", "PRO"}
	if *shardSpec != "" {
		// Shard mode: run this machine's deterministic slice of every job
		// the full report would execute (suite grid, timelines, order
		// trace), warming the shared cache, and emit no artifacts. The
		// final artifact pass is a run without -shard: with every shard
		// done it assembles purely from the cache.
		if err := runShard(*shardSpec, scheds, *maxTBs, run, start); err != nil {
			fatal(err)
		}
		return
	}

	suite, err := experiments.RunSuite(workloads.All(), scheds, *maxTBs, run)
	if err != nil {
		fatal(err)
	}

	writeFile := func(name, content string) {
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, name), []byte(content), 0o644); err != nil {
			fatal(err)
		}
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
	aes, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		fatal(err)
	}
	if *maxTBs > 0 {
		aes = aes.Shrunk(*maxTBs)
	}
	for _, sched := range []string{"LRR", "PRO"} {
		spans, r, err := experiments.Timeline(aes, sched, 0, run)
		if err != nil {
			fatal(err)
		}
		emit("fig2_"+sched+".txt", experiments.FormatTimeline(sched, spans, r.Cycles))
		writeFile("fig2_"+sched+".svg", viz.Timeline(
			fmt.Sprintf("Fig. 2 — AES thread blocks on SM 0 (%s)", sched), spans, r.Cycles))
	}

	// Table IV: AES under PRO with order tracing, first batch of TBs on
	// SM 0 (the paper shows 16 samples for its first batch of 6 TBs).
	samples, err := experiments.OrderTrace(aes, 0, run)
	if err != nil {
		fatal(err)
	}
	emit("table4.txt", experiments.FormatOrderTrace(samples, 16))

	if client != nil {
		if st, err := client.Stats(context.Background()); err == nil {
			fmt.Fprintf(os.Stderr, "report completed in %.1fs (daemon lifetime: %d jobs, %d simulated, %d replayed)\n",
				time.Since(start).Seconds(), st.Completed, st.Simulated, st.Replayed)
		} else {
			fmt.Fprintf(os.Stderr, "report completed in %.1fs\n", time.Since(start).Seconds())
		}
	} else {
		fmt.Fprintf(os.Stderr, "report completed in %.1fs (%d jobs: %d simulated, %d cache hits)\n",
			time.Since(start).Seconds(), eng.Completed(), eng.Simulated(), eng.Replayed())
	}

	if *cacheGC != "" {
		var st prosim.CacheGCStats
		var err error
		if client != nil {
			st, err = client.GC(context.Background(), *cacheGC)
		} else {
			st, err = prosim.GCResultCache(*cacheDir, *cacheGC)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cache-gc: evicted %d of %d entries, freed %d bytes\n",
			st.Evicted, st.Entries, st.Freed)
	}
}

// runShard executes slice i/n of every job the full report would run —
// the suite grid, both Fig. 2 timelines and the Table IV order trace —
// warming the shared result cache without emitting artifacts.
func runShard(spec string, scheds []string, maxTBs int, run jobs.Runner, start time.Time) error {
	i, n, err := cluster.ParseShard(spec)
	if err != nil {
		return err
	}
	batch := experiments.SuiteJobs(workloads.All(), scheds, maxTBs)
	aes, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		return err
	}
	if maxTBs > 0 {
		aes = aes.Shrunk(maxTBs)
	}
	batch = append(batch,
		experiments.TimelineJob(aes, "LRR"),
		experiments.TimelineJob(aes, "PRO"),
		experiments.OrderTraceJob(aes, 0))
	slice, err := cluster.Shard(i, n, batch)
	if err != nil {
		return err
	}
	if _, err := run.Run(context.Background(), slice); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "shard %d/%d: ran %d of %d jobs in %.1fs\n",
		i+1, n, len(slice), len(batch), time.Since(start).Seconds())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}
