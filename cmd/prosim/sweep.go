package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cli"
	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/prosim"
)

// sweep runs the design-choice ablations:
//
//   - -variants: PRO against the paper's future-work variants, with the
//     Sec. IV barrier ablation as its nobar/PRO column: Sec. IV reports
//     scalarProd speeding up 11% with the special barrier handling
//     disabled — the motivation for the paper's future-work profiling.
//   - -threshold: sensitivity of PRO to the re-sort THRESHOLD
//     (Sec. III-C.1 uses 1000 cycles).
//   - -l1: L1 capacity sensitivity under LRR and PRO.
//
// All points of a sweep run in parallel across -jobs workers; -cache DIR
// memoizes every point so re-sweeping with one more kernel only
// simulates the new points (nothing evicts them; delete the directory
// to start over). With -daemon ADDR the points execute on a running
// prosimd instance instead (sharing its warm cache and deduping against
// concurrent clients); -jobs and -cache then belong to the daemon and
// are ignored here. With -workers the points fan out across
// several prosimd instances through the cluster coordinator.
// Progress goes to stderr; stdout carries only the tables.
//
//	prosim sweep -variants
//	prosim sweep -threshold -kernel aesEncrypt128
//	prosim sweep -cache .simcache
//	prosim sweep -daemon unix:/tmp/prosimd.sock -threshold
//	prosim sweep -workers 127.0.0.1:9753,127.0.0.1:9754 -cache /shared/simcache
func sweep(args []string) {
	h := cli.New("prosim sweep", cli.Spec{Priority: "bulk", Profile: true})
	variants := h.Flags.Bool("variants", false, "compare PRO against PRO-nobar (the barrier-handling ablation) and the paper's future-work variants (PRO-adaptive, PRO-norm)")
	threshold := h.Flags.Bool("threshold", false, "sweep the PRO re-sort threshold")
	l1Sweep := h.Flags.Bool("l1", false, "sweep the L1 size (paper future work: cache behaviour of prioritized warps)")
	kernels := h.Flags.String("kernel", "scalarProdGPU,MonteCarloOneBlockPerOption,calculate_temp,aesEncrypt128",
		"comma-separated kernels to sweep")
	h.Parse(args)

	if !*threshold && !*variants && !*l1Sweep {
		*threshold, *variants, *l1Sweep = true, true, true
	}
	runner := h.Runner()
	run := func(batch []jobs.Job) []*stats.KernelResult {
		rs, err := runner.Run(context.Background(), batch)
		if err != nil {
			h.Fatal(err)
		}
		return rs
	}

	var targets []*prosim.Workload
	for _, name := range strings.Split(*kernels, ",") {
		targets = append(targets, h.Workload(strings.TrimSpace(name)))
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

	h.Finish()
}

// ---- Batch builders ----
//
// Each sweep's exact job list, in the order its printer reads the
// results.

// variantNames orders the future-work variant comparison; printVariants
// reads PRO and PRO-nobar from its first two columns.
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
				Launch:    w.Launch,
				Kernel:    w.Kernel,
				Scheduler: fmt.Sprintf("PRO+threshold=%d", th),
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

// printVariants compares PRO against the future-work variants, and
// against PRO-nobar in the nobar/PRO column (Sec. IV: scalarProd gains
// when the barrier handling is disabled).
func printVariants(targets []*prosim.Workload, rs []*stats.KernelResult) {
	fmt.Println("Future-work variants (Sec. IV profiling, Sec. III-A normalized progress)")
	fmt.Printf("%-28s", "KERNEL")
	for _, n := range variantNames {
		fmt.Printf(" %13s", n)
	}
	fmt.Printf(" %10s\n", "nobar/PRO")
	for i, w := range targets {
		row := rs[i*len(variantNames) : (i+1)*len(variantNames)]
		fmt.Printf("%-28s", w.Kernel)
		for _, r := range row {
			fmt.Printf(" %13d", r.Cycles)
		}
		fmt.Printf(" %9.3fx\n", float64(row[0].Cycles)/float64(row[1].Cycles))
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
