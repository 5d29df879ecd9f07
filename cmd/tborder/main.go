// Command tborder regenerates the paper's Table IV: the priority-sorted
// order of SM 0's first batch of thread blocks, sampled at every
// THRESHOLD-cycle re-sort of the PRO scheduler, for the AES application.
//
// Usage:
//
//	tborder                          # AES, threshold 1000 (paper setup)
//	tborder -kernel render -threshold 500 -rows 0
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func main() {
	kernel := flag.String("kernel", "aesEncrypt128", "Table II kernel to trace")
	threshold := flag.Int64("threshold", 0, "PRO re-sort threshold in cycles (0 = paper default 1000)")
	rows := flag.Int("rows", 16, "max sample rows to print (0 = all)")
	maxTBs := flag.Int("maxtbs", 0, "shrink grid (0 = full)")
	njobs := flag.Int("jobs", 1, "parallel simulation workers (a trace is one job)")
	cacheDir := flag.String("cache", "", "result-cache directory (optional)")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	if _, err := logCfg.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, "tborder:", err)
		os.Exit(1)
	}

	w, err := workloads.ByKernel(*kernel)
	if err != nil {
		fatal(err)
	}
	if *maxTBs > 0 {
		w = w.Shrunk(*maxTBs)
	}
	eng, err := jobs.New(*njobs, *cacheDir, nil)
	if err != nil {
		fatal(err)
	}
	samples, err := experiments.OrderTrace(w, *threshold, eng)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiments.FormatOrderTrace(samples, *rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tborder:", err)
	os.Exit(1)
}
