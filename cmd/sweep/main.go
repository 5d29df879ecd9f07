// Command sweep runs the design-choice ablations:
//
//   - -ablate: PRO with and without special barrier handling, per kernel.
//     Sec. IV reports scalarProd speeding up 11% with the handling
//     disabled — the motivation for the paper's future-work profiling.
//   - -threshold: sensitivity of PRO to the re-sort THRESHOLD
//     (Sec. III-C.1 uses 1000 cycles).
//   - -variants: PRO against the paper's future-work variants.
//   - -l1: L1 capacity sensitivity under LRR and PRO.
//
// All points of a sweep run in parallel across -jobs workers; -cache DIR
// memoizes every point so re-sweeping with one more kernel only
// simulates the new points. With -daemon ADDR the points execute on a
// running prosimd instance instead (sharing its warm cache and deduping
// against concurrent clients); -jobs and -cache then belong to the
// daemon and are ignored here. With -workers the points fan out across
// several prosimd instances through a work-stealing coordinator. With
// -shard i/n only slice i of n of the selected sweeps' points run (by
// result-cache key, against a shared -cache) and no tables print — run
// once without -shard afterwards to print everything from the cache.
// Progress goes to stderr; stdout carries only the tables.
//
// Usage:
//
//	sweep -ablate
//	sweep -threshold -kernel aesEncrypt128
//	sweep -cache .simcache
//	sweep -daemon unix:/tmp/prosimd.sock -threshold
//	sweep -workers 127.0.0.1:9753,127.0.0.1:9754 -cache /shared/simcache
//	sweep -shard 1/2 -cache /shared/simcache
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/prosim"
)

// runner executes every sweep batch: a local jobs.Engine, a
// daemon.Client when -daemon is set, or a cluster.Coordinator when
// -workers is set.
var runner jobs.Runner

func main() {
	ablate := flag.Bool("ablate", false, "compare PRO vs PRO-nobar (barrier-handling ablation)")
	variants := flag.Bool("variants", false, "compare PRO against the paper's future-work variants (PRO-adaptive, PRO-norm)")
	threshold := flag.Bool("threshold", false, "sweep the PRO re-sort threshold")
	l1Sweep := flag.Bool("l1", false, "sweep the L1 size (paper future work: cache behaviour of prioritized warps)")
	kernels := flag.String("kernel", "scalarProdGPU,MonteCarloOneBlockPerOption,calculate_temp,aesEncrypt128",
		"comma-separated kernels to sweep")
	maxTBs := flag.Int("maxtbs", 0, "shrink grids (0 = full)")
	quiet := flag.Bool("quiet", false, "suppress progress")
	njobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers")
	cacheDir := flag.String("cache", "", "result-cache directory (optional)")
	cacheGC := flag.String("cache-gc", "", "after the run, evict least-recently-used cache entries down to this size (e.g. 256M; needs -cache)")
	daemonAddr := flag.String("daemon", "", "run simulations on a prosimd daemon at this address (host:port or unix:/path) instead of locally")
	workersFlag := flag.String("workers", "", "fan simulations out across these comma-separated prosimd addresses (work-stealing coordinator; -cache is the shared merge cache)")
	shardSpec := flag.String("shard", "", "run only slice i/n of the selected sweeps' points (e.g. 2/3) against a shared cache and print no tables")
	priority := flag.String("priority", "bulk", "scheduling class on the daemon/workers: bulk yields slots to interactive clients")
	token := flag.String("token", "", "tenant token sent as X-Prosim-Token to tokened daemons")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	log, err := logCfg.Setup()
	if err != nil {
		fatal(err)
	}
	if *daemonAddr != "" && *workersFlag != "" {
		fatal(fmt.Errorf("-daemon and -workers are mutually exclusive"))
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
	if !*ablate && !*threshold && !*variants && !*l1Sweep {
		*ablate, *threshold, *variants, *l1Sweep = true, true, true, true
	}
	var progress func(jobs.Event)
	if !*quiet {
		progress = jobs.PrintProgress(os.Stderr)
	}
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
		runner = client
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
		runner = coord
	} else {
		eng, err := jobs.New(*njobs, *cacheDir, progress)
		if err != nil {
			fatal(err)
		}
		runner = eng
	}

	var targets []*prosim.Workload
	for _, name := range strings.Split(*kernels, ",") {
		w, err := workloads.ByKernel(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		if *maxTBs > 0 {
			w = w.Shrunk(*maxTBs)
		}
		targets = append(targets, w)
	}

	if *shardSpec != "" {
		// Shard mode: run this machine's deterministic slice of every
		// point the selected sweeps would simulate, warming the shared
		// cache; the tables print on a later run without -shard.
		i, n, err := cluster.ParseShard(*shardSpec)
		if err != nil {
			fatal(err)
		}
		var batch []jobs.Job
		if *ablate {
			batch = append(batch, ablationJobs(targets)...)
		}
		if *variants {
			batch = append(batch, variantJobs(targets)...)
		}
		if *l1Sweep {
			batch = append(batch, l1Jobs(targets)...)
		}
		if *threshold {
			batch = append(batch, thresholdJobs(targets)...)
		}
		slice, err := cluster.Shard(i, n, batch)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		run(slice)
		fmt.Fprintf(os.Stderr, "shard %d/%d: ran %d of %d jobs in %.1fs\n",
			i+1, n, len(slice), len(batch), time.Since(start).Seconds())
		return
	}

	if *ablate {
		printAblation(targets, run(ablationJobs(targets)))
	}
	if *variants {
		printVariants(targets, run(variantJobs(targets)))
	}
	if *l1Sweep {
		printL1Sweep(targets, run(l1Jobs(targets)))
	}
	if *threshold {
		printThresholdSweep(targets, run(thresholdJobs(targets)))
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

// run executes a batch through the shared runner.
func run(batch []jobs.Job) []*stats.KernelResult {
	rs, err := runner.Run(context.Background(), batch)
	if err != nil {
		fatal(err)
	}
	return rs
}

// ---- Batch builders ----
//
// Each sweep's exact job list, separate from its printer so the shard
// selector can enumerate (and slice) the points without running them.

// ablationJobs is the PRO vs PRO-nobar grid (Sec. IV).
func ablationJobs(targets []*prosim.Workload) []jobs.Job {
	return jobs.Grid(targets, []string{"PRO", "PRO-nobar"}, 0, prosim.Options{})
}

// variantNames orders the future-work variant comparison.
var variantNames = []string{"PRO", "PRO-nobar", "PRO-adaptive", "PRO-norm"}

// variantJobs is the future-work variant grid.
func variantJobs(targets []*prosim.Workload) []jobs.Job {
	return jobs.Grid(targets, variantNames, 0, prosim.Options{})
}

// sweepThresholds are the re-sort THRESHOLD points (paper: 1000).
var sweepThresholds = []int64{250, 500, 1000, 2000, 4000}

// thresholdJobs is the re-sort threshold grid, threshold-major within
// each kernel.
func thresholdJobs(targets []*prosim.Workload) []jobs.Job {
	var batch []jobs.Job
	for _, w := range targets {
		for _, th := range sweepThresholds {
			batch = append(batch, jobs.Job{
				Launch:     w.Launch,
				Kernel:     w.Kernel,
				Factory:    prosim.PRO(core.WithThreshold(th)),
				FactoryKey: fmt.Sprintf("PRO+threshold=%d", th),
			})
		}
	}
	return batch
}

// l1Sizes and l1Scheds define the L1 sensitivity grid.
var (
	l1Sizes  = []int{8 << 10, 16 << 10, 32 << 10, 64 << 10}
	l1Scheds = []string{"LRR", "PRO"}
)

// l1Jobs is the L1 capacity grid, size-major within each
// kernel/scheduler pair.
func l1Jobs(targets []*prosim.Workload) []jobs.Job {
	var batch []jobs.Job
	for _, w := range targets {
		for _, sched := range l1Scheds {
			for _, size := range l1Sizes {
				cfg := prosim.GTX480()
				cfg.L1Size = size
				batch = append(batch, jobs.Job{
					Config:    cfg,
					Launch:    w.Launch,
					Kernel:    w.Kernel,
					Scheduler: sched,
				})
			}
		}
	}
	return batch
}

// ---- Printers ----

// printAblation compares PRO against PRO-nobar per kernel (Sec. IV).
func printAblation(targets []*prosim.Workload, rs []*stats.KernelResult) {
	fmt.Println("Ablation — PRO barrier handling (Sec. IV: scalarProd gains when disabled)")
	fmt.Printf("%-28s %12s %12s %10s\n", "KERNEL", "PRO", "PRO-nobar", "nobar/PRO")
	for i, w := range targets {
		on, off := rs[2*i], rs[2*i+1]
		fmt.Printf("%-28s %12d %12d %9.3fx\n", w.Kernel, on.Cycles, off.Cycles,
			float64(on.Cycles)/float64(off.Cycles))
	}
	fmt.Println()
}

// printVariants compares PRO against the future-work variants.
func printVariants(targets []*prosim.Workload, rs []*stats.KernelResult) {
	fmt.Println("Future-work variants (Sec. IV profiling, Sec. III-A normalized progress)")
	fmt.Printf("%-28s", "KERNEL")
	for _, n := range variantNames {
		fmt.Printf(" %13s", n)
	}
	fmt.Println()
	for i, w := range targets {
		fmt.Printf("%-28s", w.Kernel)
		for k := range variantNames {
			fmt.Printf(" %13d", rs[i*len(variantNames)+k].Cycles)
		}
		fmt.Println()
	}
	fmt.Println()
}

// printThresholdSweep prints the re-sort threshold sensitivity.
func printThresholdSweep(targets []*prosim.Workload, rs []*stats.KernelResult) {
	fmt.Println("Ablation — PRO re-sort THRESHOLD (paper uses 1000 cycles)")
	fmt.Printf("%-28s", "KERNEL")
	for _, th := range sweepThresholds {
		fmt.Printf(" %9d", th)
	}
	fmt.Println()
	for i, w := range targets {
		fmt.Printf("%-28s", w.Kernel)
		for k := range sweepThresholds {
			fmt.Printf(" %9d", rs[i*len(sweepThresholds)+k].Cycles)
		}
		fmt.Println()
	}
}

// printL1Sweep prints cycles and L1 miss rate at each capacity point.
// The paper's future work targets "improving cache and memory
// performance of high priority warps"; this sweep shows how much
// headroom the L1 leaves on each kernel.
func printL1Sweep(targets []*prosim.Workload, rs []*stats.KernelResult) {
	fmt.Println("Sensitivity — L1 capacity (cycles @ L1 miss rate)")
	fmt.Printf("%-28s %-5s", "KERNEL", "SCHED")
	for _, s := range l1Sizes {
		fmt.Printf(" %16s", fmt.Sprintf("L1=%dKB", s>>10))
	}
	fmt.Println()
	i := 0
	for _, w := range targets {
		for _, sched := range l1Scheds {
			fmt.Printf("%-28s %-5s", w.Kernel, sched)
			for range l1Sizes {
				r := rs[i]
				i++
				fmt.Printf(" %10d@%4.1f%%", r.Cycles, 100*r.Mem.L1MissRate())
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
