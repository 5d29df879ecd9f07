// Command speedup regenerates the paper's Figure 4: per-kernel speedup
// of PRO over the TL, LRR and GTO baselines, with geometric means.
//
// Usage:
//
//	speedup                  # full suite
//	speedup -app ScalarProd  # one application's kernels
//	speedup -maxtbs 100      # quick pass on shrunk grids
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
	app := flag.String("app", "", "restrict to one application (Table III name)")
	maxTBs := flag.Int("maxtbs", 0, "shrink grids to at most this many TBs (0 = full)")
	quiet := flag.Bool("quiet", false, "suppress progress")
	njobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers")
	cacheDir := flag.String("cache", "", "result-cache directory (optional)")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	if _, err := logCfg.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(1)
	}

	ws := workloads.All()
	if *app != "" {
		ws = workloads.ByApp(*app)
		if len(ws) == 0 {
			fmt.Fprintf(os.Stderr, "speedup: unknown application %q\n", *app)
			os.Exit(1)
		}
	}
	var progress func(jobs.Event)
	if !*quiet {
		progress = jobs.PrintProgress(os.Stderr)
	}
	eng, err := jobs.New(*njobs, *cacheDir, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(1)
	}
	suite, err := experiments.RunSuite(ws, []string{"TL", "LRR", "GTO", "PRO"}, *maxTBs, eng)
	if err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(1)
	}
	fmt.Print(experiments.FormatFig4(suite.ComputeFig4()))
}
