package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/prosim"
)

// runSubcommand runs one subcommand on args. Each writes its artifacts,
// or one view of a single run, on stdout; progress and summaries go to
// stderr.
//
//	prosim speedup [-app ScalarProd]        # Fig. 4: PRO's speedup over TL, LRR, GTO
//	prosim stalls [-fig1] [-table3] [-fig5] # Fig. 1, Table III, Fig. 5 (all by default)
//	prosim timeline [-kernel K] [-sm N]     # Fig. 2: TB lifetimes on one SM, LRR vs PRO
//	prosim tborder [-threshold 500 -rows 0] # Table IV: PRO's sorted TB order over time
//	prosim trace -sched LRR -every 500      # sampled IPC / stall / occupancy CSV of one run
//	prosim report [-out results]            # every artifact above (report.go)
//	prosim papercheck                       # PASS/FAIL per paper claim (papercheck.go)
//	prosim sweep [-ablate] [-threshold] ... # design-choice ablations (sweep.go)
//	prosim flight -scheds LRR,PRO           # flight-recorder capture of one kernel (flight.go)
func runSubcommand(name string, args []string) {
	switch name {
	case "speedup":
		speedup(args)
	case "stalls":
		stalls(args)
	case "timeline":
		timeline(args)
	case "tborder":
		tborder(args)
	case "trace":
		trace(args)
	case "report":
		report(args)
	case "papercheck":
		papercheck(args)
	case "sweep":
		sweep(args)
	case "flight":
		recordFlight(args)
	default:
		fmt.Fprintf(os.Stderr, "prosim: unknown subcommand %q (want speedup, stalls, timeline, tborder, trace, report, papercheck, sweep or flight, or flags only)\n", name)
		os.Exit(2)
	}
}

// speedup prints Fig. 4: per-kernel speedup of PRO over the TL, LRR and
// GTO baselines, with geometric means.
func speedup(args []string) {
	h := cli.New("prosim speedup", cli.Spec{})
	app := h.Flags.String("app", "", "restrict to one application (Table III name)")
	h.Parse(args)

	ws := workloads.All()
	if *app != "" {
		if ws = workloads.ByApp(*app); len(ws) == 0 {
			h.Fatal(fmt.Errorf("unknown application %q", *app))
		}
	}
	suite, err := experiments.RunSuite(ws, []string{"TL", "LRR", "GTO", "PRO"}, h.MaxTBs, h.Runner())
	if err != nil {
		h.Fatal(err)
	}
	fmt.Print(experiments.FormatFig4(suite.ComputeFig4()))
}

// stalls prints the stall studies: Fig. 1 (Idle / Scoreboard / Pipeline
// composition per application under TL, LRR and GTO), Table III (stall
// ratios of each baseline over PRO) and Fig. 5 (Table III's totals).
// With none of -fig1, -table3, -fig5 it prints all three; Fig. 1 alone
// runs no PRO simulations.
func stalls(args []string) {
	h := cli.New("prosim stalls", cli.Spec{})
	fig1 := h.Flags.Bool("fig1", false, "emit Fig. 1 stall composition")
	table3 := h.Flags.Bool("table3", false, "emit Table III")
	fig5 := h.Flags.Bool("fig5", false, "emit Fig. 5")
	h.Parse(args)

	if !*fig1 && !*table3 && !*fig5 {
		*fig1, *table3, *fig5 = true, true, true
	}
	scheds := []string{"TL", "LRR", "GTO"}
	if *table3 || *fig5 {
		scheds = append(scheds, "PRO")
	}
	suite, err := experiments.RunSuite(workloads.All(), scheds, h.MaxTBs, h.Runner())
	if err != nil {
		h.Fatal(err)
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

// timeline prints Fig. 2: the lifetimes of the thread blocks one SM ran
// under LRR and under PRO. Under LRR the TBs run in lock-step batches;
// under PRO they are staggered, so fresh TBs overlap old ones. The two
// runs execute in parallel.
func timeline(args []string) {
	h := cli.New("prosim timeline", cli.Spec{Quiet: true})
	kernel := h.Flags.String("kernel", "aesEncrypt128", "Table II kernel to trace")
	smID := h.Flags.Int("sm", 0, "SM to plot")
	h.Parse(args)

	if n := config.GTX480().NumSMs; *smID < 0 || *smID >= n {
		h.Fatal(fmt.Errorf("-sm %d: the GPU has SMs 0..%d", *smID, n-1))
	}
	w := h.Workload(*kernel)
	scheds := []string{"LRR", "PRO"}
	rs, err := h.Runner().Run(context.Background(),
		jobs.Grid([]*workloads.Workload{w}, scheds, 0, prosim.Options{Timeline: true}))
	if err != nil {
		h.Fatal(err)
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
			fmt.Sprintf("%s / %s, %d cycles total", *kernel, sched, r.Cycles), *smID, spans, r.Cycles))
		fmt.Println()
	}
}

// tborder prints Table IV: the priority-sorted order of SM 0's first
// batch of thread blocks at every THRESHOLD-cycle re-sort of PRO.
func tborder(args []string) {
	h := cli.New("prosim tborder", cli.Spec{OneJob: true})
	kernel := h.Flags.String("kernel", "aesEncrypt128", "Table II kernel to trace")
	threshold := h.Flags.Int64("threshold", 0, "PRO re-sort threshold in cycles (0 = paper default 1000)")
	rows := h.Flags.Int("rows", 16, "max sample rows to print (0 = all)")
	h.Parse(args)

	samples, err := experiments.OrderTrace(h.Workload(*kernel), *threshold, h.Runner())
	if err != nil {
		h.Fatal(err)
	}
	fmt.Print(experiments.FormatOrderTrace(samples, *rows))
}

// trace prints a sampled time series of one run as CSV: per-window IPC,
// stall composition, resident and pending thread blocks. It shows the
// paper's phase arguments — compute vs memory phases, batch boundaries
// under LRR and their disappearance under PRO.
func trace(args []string) {
	h := cli.New("prosim trace", cli.Spec{OneJob: true})
	kernel := h.Flags.String("kernel", "scalarProdGPU", "Table II kernel to trace")
	sched := h.Flags.String("sched", "PRO", "scheduler")
	every := h.Flags.Int64("every", 1000, "sampling window in cycles")
	h.Parse(args)

	if *every <= 0 {
		h.Fatal(errors.New("-every must be a positive number of cycles"))
	}
	w := h.Workload(*kernel)
	rs, err := h.Runner().Run(context.Background(), []jobs.Job{{
		Launch:    w.Launch,
		Kernel:    w.Kernel,
		Scheduler: *sched,
		Options:   prosim.Options{SampleEvery: *every},
	}})
	if err != nil {
		h.Fatal(err)
	}
	r := rs[0]
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
