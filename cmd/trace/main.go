// Command trace emits a sampled time series of one simulation as CSV:
// per-window IPC, stall composition, resident and pending thread
// blocks. It makes the paper's phase arguments visible — compute vs
// memory phases, the fastTBPhase→slowTBPhase transition, batch
// boundaries under LRR, and their disappearance under PRO.
//
// Usage:
//
//	trace -kernel scalarProdGPU -sched LRR -every 500 > lrr.csv
//	trace -kernel scalarProdGPU -sched PRO -every 500 > pro.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/flight"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workloads"
	"repro/prosim"
)

func main() {
	kernel := flag.String("kernel", "scalarProdGPU", "Table II kernel to trace")
	sched := flag.String("sched", "PRO", "scheduler")
	every := flag.Int64("every", 1000, "sampling window in cycles")
	maxTBs := flag.Int("maxtbs", 0, "shrink grid (0 = full)")
	njobs := flag.Int("jobs", 1, "parallel simulation workers (a trace is one job)")
	cacheDir := flag.String("cache", "", "result-cache directory (optional)")
	flightOut := flag.String("flight-out", "",
		"write the run's flight-recorder capture as Perfetto trace-event JSON to this file (a cache-served run records nothing; a warning is printed)")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	if _, err := logCfg.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
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
	opts := prosim.Options{SampleEvery: *every}
	var rec *flight.Recorder
	if *flightOut != "" {
		rec = flight.New(flight.Options{})
		opts.Flight = rec
	}
	r, err := eng.RunOne(context.Background(), jobs.Job{
		Launch:    w.Launch,
		Kernel:    w.Kernel,
		Scheduler: *sched,
		Options:   opts,
	})
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		if !rec.Recorded() {
			fmt.Fprintf(os.Stderr, "trace: -flight-out: result served from the cache, nothing recorded (clear %s or change -cache)\n", *cacheDir)
		} else {
			f, err := os.Create(*flightOut)
			if err != nil {
				fatal(err)
			}
			if err := rec.Capture().WritePerfetto(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trace: flight capture written to %s\n", *flightOut)
		}
	}
	fmt.Println("cycle,ipc,issued,idle,scoreboard,pipeline,resident_tbs,pending_tbs")
	for _, s := range r.Samples {
		fmt.Printf("%d,%.4f,%d,%d,%d,%d,%d,%d\n",
			s.Cycle, s.IPC(*every),
			s.Stalls.Issued, s.Stalls.Idle, s.Stalls.Scoreboard, s.Stalls.Pipeline,
			s.ResidentTBs, s.PendingTBs)
	}
	fmt.Fprintf(os.Stderr, "trace: %s/%s: %d cycles, %d samples\n",
		w.Kernel, r.Scheduler, r.Cycles, len(r.Samples))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace:", err)
	os.Exit(1)
}
