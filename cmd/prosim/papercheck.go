package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/prosim"
)

// papercheck is the reproduction acceptance harness: it runs the
// evaluation and asserts the paper's directional claims one by one,
// printing PASS/FAIL for each, and exits 1 if any fails. Absolute
// numbers are not compared (the substrate is a different simulator);
// the claims are the *shape* of the results:
//
//	C1  PRO beats TL on geomean runtime
//	C2  PRO beats LRR on geomean runtime
//	C3  PRO at least matches GTO on geomean runtime (paper: +2%)
//	C4  TL is the weakest baseline (paper: PRO gains most over TL)
//	C5  PRO reduces total stalls vs TL on geomean (paper: 1.32x)
//	C6  PRO reduces total stalls vs LRR on geomean (paper: 1.19x)
//	C7  PRO's biggest stall reduction vs LRR is in Idle cycles
//	C8  LRR has the highest Idle-stall share among baselines on more
//	    applications than either TL or GTO (paper Sec. II-B)
//	C9  LRR runs TBs in batches; PRO staggers them (Fig. 2): the
//	    first-batch finish spread on SM 0 is wider under PRO
//	C10 PRO's TB priority order changes over time (Table IV churn)
//	C11 scalarProd prefers barrier handling OFF (Sec. IV ablation)
//	C12 PRO's hardware cost is 240 bytes/SM for Table I (Sec. III-E)
//
//	prosim papercheck                  # full grids, all cores
//	prosim papercheck -maxtbs 60       # quick pass
//	prosim papercheck -cache .simcache # memoize runs; warm re-checks are instant
//
// Progress goes to stderr; stdout carries only the PASS/FAIL report.

func papercheck(args []string) {
	h := cli.New("prosim papercheck", cli.Spec{Quiet: true, CacheGC: true})
	h.Parse(args)

	failures := 0
	check := func(id, claim string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%-4s %s  %s (%s)\n", id, status, claim, detail)
	}

	if h.MaxTBs > 0 {
		fmt.Printf("note: grids shrunk to %d TBs — the SM-residency claims (C2, C6, C8)\n", h.MaxTBs)
		fmt.Println("need multi-batch grids and may legitimately weaken; run without -maxtbs")
		fmt.Println("for the authoritative check.")
		fmt.Println()
	}
	start := time.Now()
	h.Runner() // local: papercheck has no -daemon or -workers
	eng := h.Engine
	suite, err := experiments.RunSuite(workloads.All(),
		[]string{"TL", "LRR", "GTO", "PRO"}, h.MaxTBs, eng)
	if err != nil {
		h.Fatal(err)
	}

	f4 := suite.ComputeFig4()
	check("C1", "PRO > TL on geomean runtime",
		f4.Geomean["TL"] > 1.0, fmt.Sprintf("%.3fx, paper 1.13x", f4.Geomean["TL"]))
	check("C2", "PRO > LRR on geomean runtime",
		f4.Geomean["LRR"] > 1.0, fmt.Sprintf("%.3fx, paper 1.12x", f4.Geomean["LRR"]))
	check("C3", "PRO >= GTO on geomean runtime (within 1%)",
		f4.Geomean["GTO"] > 0.99, fmt.Sprintf("%.3fx, paper 1.02x", f4.Geomean["GTO"]))
	check("C4", "TL is the weakest baseline",
		f4.Geomean["TL"] >= f4.Geomean["LRR"] && f4.Geomean["TL"] >= f4.Geomean["GTO"],
		fmt.Sprintf("gains: TL %.3f, LRR %.3f, GTO %.3f",
			f4.Geomean["TL"], f4.Geomean["LRR"], f4.Geomean["GTO"]))

	t3 := suite.ComputeTable3()
	check("C5", "PRO reduces total stalls vs TL",
		t3.Geomean["TL"].Total > 1.0, fmt.Sprintf("%.2fx, paper 1.32x", t3.Geomean["TL"].Total))
	check("C6", "PRO reduces total stalls vs LRR",
		t3.Geomean["LRR"].Total > 1.0, fmt.Sprintf("%.2fx, paper 1.19x", t3.Geomean["LRR"].Total))
	lrr := t3.Geomean["LRR"]
	check("C7", "largest stall reduction vs LRR is Idle",
		lrr.Idle >= lrr.SB && lrr.Idle >= lrr.Pipe,
		fmt.Sprintf("idle %.2f, sb %.2f, pipe %.2f", lrr.Idle, lrr.SB, lrr.Pipe))

	meanIdle := map[string]float64{}
	for _, sched := range experiments.BaselineOrder {
		rows := suite.ComputeFig1(sched)
		sum := 0.0
		for _, row := range rows {
			sum += row.IdleFrac
		}
		meanIdle[sched] = sum / float64(len(rows))
	}
	check("C8", "LRR has the highest mean Idle-stall share (Sec. II-B)",
		meanIdle["LRR"] >= meanIdle["TL"] && meanIdle["LRR"] >= meanIdle["GTO"],
		fmt.Sprintf("LRR %.1f%%, TL %.1f%%, GTO %.1f%%",
			100*meanIdle["LRR"], 100*meanIdle["TL"], 100*meanIdle["GTO"]))

	aes := h.Workload("aesEncrypt128")
	batch := aes.Launch.ResidentTBs(config.GTX480())
	spreadOf := func(sched string) int64 {
		spans, _, err := experiments.Timeline(aes, sched, 0, eng)
		if err != nil {
			h.Fatal(err)
		}
		return finishSpread(spans, batch)
	}
	lrrSpread, proSpread := spreadOf("LRR"), spreadOf("PRO")
	check("C9", "PRO staggers the first batch (Fig. 2)",
		proSpread > lrrSpread,
		fmt.Sprintf("finish spread LRR %d vs PRO %d cycles", lrrSpread, proSpread))

	trace, err := experiments.OrderTrace(aes, 0, eng)
	if err != nil {
		h.Fatal(err)
	}
	churn := 0
	for i := 1; i < len(trace); i++ {
		if !equalInts(trace[i].Order, trace[i-1].Order) {
			churn++
		}
	}
	check("C10", "TB priority order re-sorts over time (Table IV)",
		churn >= 2, fmt.Sprintf("%d changes over %d samples", churn, len(trace)))

	sp := h.Workload("scalarProdGPU")
	ablation, err := eng.Run(context.Background(),
		jobs.Grid([]*workloads.Workload{sp}, []string{"PRO", "PRO-nobar"}, 0, prosim.Options{}))
	if err != nil {
		h.Fatal(err)
	}
	on, off := ablation[0], ablation[1]
	check("C11", "scalarProd prefers barrier handling off (Sec. IV)",
		off.Cycles < on.Cycles,
		fmt.Sprintf("PRO %d vs PRO-nobar %d cycles", on.Cycles, off.Cycles))

	check("C12", "hardware cost is 240 bytes/SM (Sec. III-E)",
		core.HardwareCostBytes(config.GTX480()) == 240,
		fmt.Sprintf("%d bytes", core.HardwareCostBytes(config.GTX480())))

	fmt.Fprintf(os.Stderr, "papercheck completed in %.1fs (%d jobs: %d simulated, %d cache hits)\n",
		time.Since(start).Seconds(), eng.Completed(), eng.Simulated(), eng.Replayed())

	h.Finish()

	if failures > 0 {
		fmt.Printf("\n%d claim(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall paper claims reproduced")
}

func finishSpread(spans []stats.TBSpan, batch int) int64 {
	var lo, hi int64 = 1 << 62, 0
	for _, s := range spans {
		if s.Slot >= batch {
			continue
		}
		if s.End < lo {
			lo = s.End
		}
		if s.End > hi {
			hi = s.End
		}
	}
	if hi == 0 {
		return 0
	}
	return hi - lo
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
