// Command prosim runs one Table II kernel (or all of them) under one or
// more warp schedulers and prints runtime and stall statistics. Its
// subcommands regenerate the paper's artifacts — one each (see
// subcommands.go), or all of them (report) — check its claims
// (papercheck), run the design-choice ablations (sweep) and record one
// run's flight (flight).
//
// Usage:
//
//	prosim -kernel scalarProdGPU -sched PRO,LRR
//	prosim -all -sched TL,LRR,GTO,PRO
//	prosim -program mykernel.k -grid 256 -block 128 -sched LRR,PRO
//	prosim -list
//	prosim speedup|stalls|timeline|tborder|trace|report|papercheck|sweep|flight [flags]
//
// -program runs a kernel written in the text format of internal/isa
// (see examples/kernels/*.k for the syntax).
package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/isa"
	"repro/prosim"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		runSubcommand(os.Args[1], os.Args[2:])
		return
	}
	h := cli.New("prosim", cli.Spec{Quiet: true, CacheGC: true, Profile: true})
	kernel := h.Flags.String("kernel", "", "Table II kernel name to run")
	scheds := h.Flags.String("sched", "TL,LRR,GTO,PRO", "comma-separated scheduler list")
	all := h.Flags.Bool("all", false, "run every Table II kernel")
	list := h.Flags.Bool("list", false, "list workloads and exit")
	div := h.Flags.Bool("div", false, "also print warp-level-divergence metrics (finish disparity, barrier wait)")
	program := h.Flags.String("program", "", "path to a kernel in the text format (overrides -kernel/-all)")
	grid := h.Flags.Int("grid", 128, "grid size in TBs for -program")
	block := h.Flags.Int("block", 128, "threads per TB for -program")
	regs := h.Flags.Int("regs", 16, "registers per thread for -program")
	smem := h.Flags.Int("smem", 0, "shared memory per TB in bytes for -program")
	seed := h.Flags.Uint64("seed", 1, "kernel seed for -program")
	h.Parse(os.Args[1:])

	if *list {
		fmt.Printf("%-12s %-28s %-10s %8s %6s %6s\n", "APP", "KERNEL", "SUITE", "PAPERTBS", "GRID", "BLOCK")
		for _, w := range prosim.AllWorkloads() {
			fmt.Printf("%-12s %-28s %-10s %8d %6d %6d\n",
				w.App, w.Kernel, w.Suite, w.PaperTBs, w.Launch.GridTBs, w.Launch.BlockThreads)
		}
		h.Finish()
		return
	}

	var targets []*prosim.Workload
	switch {
	case *program != "":
		text, err := os.ReadFile(*program)
		if err != nil {
			h.Fatal(err)
		}
		prog, err := isa.Parse(string(text))
		if err != nil {
			h.Fatal(err)
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
			h.Fatal(err)
		}
		targets = []*prosim.Workload{w}
	default:
		h.Fatal(fmt.Errorf("pass -kernel <name>, -program <file>, -all or -list"))
	}

	names := strings.Split(*scheds, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}

	results, err := h.Runner().Run(context.Background(),
		prosim.WorkloadJobs(targets, names, h.MaxTBs, prosim.Options{}))
	if err != nil {
		h.Fatal(err)
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
	h.Finish()
}
