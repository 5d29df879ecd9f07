// Command timeline regenerates the paper's Figure 2: the lifetimes of
// the thread blocks executed by one SM under LRR and under PRO. Under
// LRR the TBs run in lock-step batches; under PRO they are staggered, so
// fresh TBs overlap the execution of old ones.
//
// The two runs execute in parallel; -cache DIR memoizes them. Progress
// goes to stderr; stdout carries only the timelines.
//
// Usage:
//
//	timeline                          # AES on SM 0 (the paper's setup)
//	timeline -kernel scalarProdGPU -sm 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/prosim"
)

func main() {
	kernel := flag.String("kernel", "aesEncrypt128", "Table II kernel to trace")
	smID := flag.Int("sm", 0, "SM to plot")
	maxTBs := flag.Int("maxtbs", 0, "shrink grid (0 = full)")
	quiet := flag.Bool("quiet", true, "suppress progress")
	njobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers")
	cacheDir := flag.String("cache", "", "result-cache directory (optional)")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	if _, err := logCfg.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, "timeline:", err)
		os.Exit(1)
	}

	w, err := workloads.ByKernel(*kernel)
	if err != nil {
		fatal(err)
	}
	if *maxTBs > 0 {
		w = w.Shrunk(*maxTBs)
	}
	var progress func(jobs.Event)
	if !*quiet {
		progress = jobs.PrintProgress(os.Stderr)
	}
	eng, err := jobs.New(*njobs, *cacheDir, progress)
	if err != nil {
		fatal(err)
	}

	scheds := []string{"LRR", "PRO"}
	rs, err := eng.Run(context.Background(),
		jobs.Grid([]*workloads.Workload{w}, scheds, 0, prosim.Options{Timeline: true}))
	if err != nil {
		fatal(err)
	}
	for i, sched := range scheds {
		r := rs[i]
		var spans []stats.TBSpan
		for _, sp := range r.Timeline {
			if sp.SM == *smID {
				spans = append(spans, sp)
			}
		}
		fmt.Print(experiments.FormatTimeline(
			fmt.Sprintf("%s / %s, %d cycles total", *kernel, sched, r.Cycles), spans, r.Cycles))
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "timeline:", err)
	os.Exit(1)
}
