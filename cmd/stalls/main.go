// Command stalls regenerates the paper's stall studies: Figure 1 (the
// composition of Idle / Scoreboard / Pipeline stalls per application
// under TL, LRR and GTO), Table III (per-application stall-cycle ratios
// of each baseline over PRO) and Figure 5 (the total-stall view of
// Table III).
//
// Usage:
//
//	stalls -fig1             # Fig. 1 only (baselines only, no PRO runs)
//	stalls -table3 -fig5     # stall-improvement tables (runs PRO too)
//	stalls                   # everything
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func main() {
	fig1 := flag.Bool("fig1", false, "emit Fig. 1 stall composition")
	table3 := flag.Bool("table3", false, "emit Table III")
	fig5 := flag.Bool("fig5", false, "emit Fig. 5")
	maxTBs := flag.Int("maxtbs", 0, "shrink grids to at most this many TBs (0 = full)")
	quiet := flag.Bool("quiet", false, "suppress progress")
	njobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers")
	cacheDir := flag.String("cache", "", "result-cache directory (optional)")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	if _, err := logCfg.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, "stalls:", err)
		os.Exit(1)
	}

	if !*fig1 && !*table3 && !*fig5 {
		*fig1, *table3, *fig5 = true, true, true
	}
	scheds := []string{"TL", "LRR", "GTO"}
	if *table3 || *fig5 {
		scheds = append(scheds, "PRO")
	}
	var progress func(jobs.Event)
	if !*quiet {
		progress = jobs.PrintProgress(os.Stderr)
	}
	eng, err := jobs.New(*njobs, *cacheDir, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stalls:", err)
		os.Exit(1)
	}
	suite, err := experiments.RunSuite(workloads.All(), scheds, *maxTBs, eng)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stalls:", err)
		os.Exit(1)
	}
	if *fig1 {
		for _, sched := range experiments.BaselineOrder {
			fmt.Print(experiments.FormatFig1(sched, suite.ComputeFig1(sched)))
			fmt.Println()
		}
	}
	if *table3 || *fig5 {
		t3 := suite.ComputeTable3()
		if *table3 {
			fmt.Print(experiments.FormatTable3(t3))
			fmt.Println()
		}
		if *fig5 {
			fmt.Print(experiments.FormatFig5(t3))
		}
	}
}
