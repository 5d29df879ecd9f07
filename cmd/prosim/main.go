// Command prosim runs one Table II kernel (or all of them) under one or
// more warp schedulers and prints runtime and stall statistics.
//
// Usage:
//
//	prosim -kernel scalarProdGPU -sched PRO,LRR
//	prosim -all -sched TL,LRR,GTO,PRO
//	prosim -program mykernel.k -grid 256 -block 128 -sched LRR,PRO
//	prosim -list
//
// -program runs a kernel written in the text format of internal/isa
// (see examples/kernels/*.k for the syntax).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/prosim"
)

func main() {
	kernel := flag.String("kernel", "", "Table II kernel name to run")
	scheds := flag.String("sched", "TL,LRR,GTO,PRO", "comma-separated scheduler list")
	all := flag.Bool("all", false, "run every Table II kernel")
	list := flag.Bool("list", false, "list workloads and exit")
	maxTBs := flag.Int("maxtbs", 0, "shrink grids to at most this many TBs (0 = full)")
	njobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers")
	cacheDir := flag.String("cache", "", "result-cache directory (optional)")
	cacheGC := flag.String("cache-gc", "", "after the run, evict least-recently-used cache entries down to this size (e.g. 256M; needs -cache)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	quiet := flag.Bool("quiet", true, "suppress per-run progress (stderr)")
	div := flag.Bool("div", false, "also print warp-level-divergence metrics (finish disparity, barrier wait)")
	program := flag.String("program", "", "path to a kernel in the text format (overrides -kernel/-all)")
	grid := flag.Int("grid", 128, "grid size in TBs for -program")
	block := flag.Int("block", 128, "threads per TB for -program")
	regs := flag.Int("regs", 16, "registers per thread for -program")
	smem := flag.Int("smem", 0, "shared memory per TB in bytes for -program")
	seed := flag.Uint64("seed", 1, "kernel seed for -program")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	if _, err := logCfg.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, "prosim:", err)
		os.Exit(1)
	}
	if *cacheGC != "" {
		if _, err := resultcache.ParseSize(*cacheGC); err != nil {
			fatal(err)
		}
		if *cacheDir == "" {
			fatal(errors.New("-cache-gc needs -cache"))
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		fmt.Printf("%-12s %-28s %-10s %8s %6s %6s\n", "APP", "KERNEL", "SUITE", "PAPERTBS", "GRID", "BLOCK")
		for _, w := range prosim.AllWorkloads() {
			fmt.Printf("%-12s %-28s %-10s %8d %6d %6d\n",
				w.App, w.Kernel, w.Suite, w.PaperTBs, w.Launch.GridTBs, w.Launch.BlockThreads)
		}
		return
	}

	var targets []*prosim.Workload
	switch {
	case *program != "":
		text, err := os.ReadFile(*program)
		if err != nil {
			fatal(err)
		}
		prog, err := isa.Parse(string(text))
		if err != nil {
			fatal(err)
		}
		targets = []*prosim.Workload{{
			App:    prog.Name,
			Kernel: prog.Name,
			Suite:  "custom",
			Launch: &prosim.Launch{
				Program:        prog,
				GridTBs:        *grid,
				BlockThreads:   *block,
				RegsPerThread:  *regs,
				SharedMemPerTB: *smem,
				Seed:           *seed,
			},
		}}
	case *all:
		targets = prosim.AllWorkloads()
	case *kernel != "":
		w, err := prosim.WorkloadByKernel(*kernel)
		if err != nil {
			fatal(err)
		}
		targets = []*prosim.Workload{w}
	default:
		fatal(fmt.Errorf("pass -kernel <name>, -program <file>, -all or -list"))
	}

	names := strings.Split(*scheds, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}

	var progress func(prosim.JobEvent)
	if !*quiet {
		progress = prosimProgress(os.Stderr)
	}
	eng, err := prosim.NewJobEngine(*njobs, *cacheDir, progress)
	if err != nil {
		fatal(err)
	}
	results, err := prosim.RunJobs(context.Background(), eng,
		prosim.WorkloadJobs(targets, names, *maxTBs, prosim.Options{}))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%-28s %-9s %12s %8s %12s %12s %12s %8s",
		"KERNEL", "SCHED", "CYCLES", "IPC", "IDLE", "SCOREBOARD", "PIPELINE", "L1MISS")
	if *div {
		fmt.Printf(" %10s %10s", "WDISP", "BARWAIT")
	}
	fmt.Println()
	for wi, w := range targets {
		var baseCycles int64
		for i := range names {
			r := results[wi*len(names)+i]
			speed := ""
			if i == 0 {
				baseCycles = r.Cycles
			} else if r.Cycles > 0 {
				speed = fmt.Sprintf("  %.3fx vs %s", float64(baseCycles)/float64(r.Cycles), names[0])
			}
			fmt.Printf("%-28s %-9s %12d %8.3f %12d %12d %12d %7.1f%%",
				w.Kernel, r.Scheduler, r.Cycles, r.IPC(),
				r.Stalls.Idle, r.Stalls.Scoreboard, r.Stalls.Pipeline,
				100*r.Mem.L1MissRate())
			if *div {
				fmt.Printf(" %10.0f %10.0f", r.AvgWarpDisparity(), r.AvgBarrierWait())
			}
			fmt.Println(speed)
		}
	}

	if *cacheGC != "" {
		st, err := prosim.GCResultCache(*cacheDir, *cacheGC)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cache-gc: evicted %d of %d entries, freed %d bytes\n",
			st.Evicted, st.Entries, st.Freed)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

// prosimProgress renders job-engine events on w, one line each.
func prosimProgress(w *os.File) func(prosim.JobEvent) {
	return func(ev prosim.JobEvent) {
		fmt.Fprintf(w, "[%7.1fs] %3d/%d %s/%s\n",
			ev.Elapsed.Seconds(), ev.Done, ev.Total, ev.Kernel, ev.Scheduler)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prosim:", err)
	os.Exit(1)
}
