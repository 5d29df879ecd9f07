package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/flight"
	"repro/internal/jobs"
	"repro/internal/schedreg"
	"repro/prosim"
)

// recordFlight runs one kernel under the flight recorder per scheduler
// and renders the capture: an aggregated stall-attribution report
// (kernel × scheduler table of mean memory latency split by lifecycle
// component, plus the least-progressed warps), a Perfetto/Chrome
// trace-event JSON file loadable at ui.perfetto.dev, or raw NDJSON for
// downstream tooling.
//
// Unlike the other subcommands it never uses a result cache (it has no
// -cache): a cached result was not executed, so it has no flight to
// record. It is the one way to record a flight, and records every warp
// and every memory transaction.
//
//	prosim flight -kernel scalarProdGPU -scheds LRR,PRO                # report to stdout
//	prosim flight -kernel scalarProdGPU -scheds PRO -format perfetto -out pro.trace.json
//	prosim flight -kernel BlackScholes -scheds GTO -format ndjson -out gto.ndjson
func recordFlight(args []string) {
	h := cli.New("prosim flight", cli.Spec{OneJob: true, NoCache: true})
	kernel := h.Flags.String("kernel", "scalarProdGPU", "Table II kernel to record")
	scheds := h.Flags.String("scheds", "LRR,PRO",
		"comma-separated schedulers (report compares them; perfetto/ndjson need exactly one)")
	format := h.Flags.String("format", "report", "output format: report | perfetto | ndjson")
	out := h.Flags.String("out", "", "output file (default stdout)")
	h.Parse(args)

	// Every argument check comes before -out is created or anything
	// runs: a rejected invocation must not truncate an existing file.
	switch *format {
	case "report", "perfetto", "ndjson":
	default:
		h.Fatal(fmt.Errorf("unknown format %q", *format))
	}
	names := splitScheds(*scheds)
	if len(names) == 0 {
		h.Fatal(fmt.Errorf("no schedulers given"))
	}
	if *format != "report" && len(names) != 1 {
		h.Fatal(fmt.Errorf("format %q writes one capture: give exactly one scheduler (got %d)", *format, len(names)))
	}
	for _, name := range names {
		if _, err := schedreg.Resolve(name); err != nil {
			h.Fatal(err)
		}
	}
	w := h.Workload(*kernel)

	// No cache (the spec declares no -cache): every run must execute.
	h.Runner()
	eng := h.Engine

	dst := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			h.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				h.Fatal(err)
			}
		}()
		dst = f
	}

	var reports []flight.Report
	for _, sched := range names {
		rec := flight.New()
		_, err := eng.RunOne(context.Background(), jobs.Job{
			Launch:    w.Launch,
			Kernel:    w.Kernel,
			Scheduler: sched,
			Options:   prosim.Options{Flight: rec},
		})
		if err != nil {
			h.Fatal(err)
		}
		switch *format {
		case "perfetto":
			if err := rec.Capture().WritePerfetto(dst); err != nil {
				h.Fatal(err)
			}
		case "ndjson":
			if err := rec.Capture().WriteNDJSON(dst); err != nil {
				h.Fatal(err)
			}
		case "report":
			reports = append(reports, rec.Report())
		}
	}
	if *format == "report" {
		writeReportTable(dst, reports)
	}
	h.Finish()
}

// writeReportTable renders the kernel × scheduler stall-attribution
// table followed by each scheduler's least-progressed warps.
func writeReportTable(w io.Writer, reports []flight.Report) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kernel\tscheduler\tcycles\tstall_total\tidle\tscoreboard\tpipeline\tspans\tmem_mean\ticnt_req\tl2_service\tl2_mshr\tdram_queue\tdram_service\ticnt_resp")
	for _, rep := range reports {
		m := rep.Mem
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			rep.Kernel, rep.Scheduler, rep.Cycles,
			rep.Stalls.Total(), rep.Stalls.Idle, rep.Stalls.Scoreboard, rep.Stalls.Pipeline,
			rep.Spans, m.MeanTotal, m.MeanICNTReq, m.MeanL2Service, m.MeanL2MSHR,
			m.MeanDRAMQueue, m.MeanDRAMService, m.MeanICNTResp)
	}
	tw.Flush()
	for _, rep := range reports {
		if len(rep.LeastProgressed) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s/%s least-progressed warps (events %d, dropped %d; spans %d, dropped %d; l2_hits %d, l2_merges %d, row_hits %d, l1_merged %d):\n",
			rep.Kernel, rep.Scheduler, rep.Events, rep.EventsDropped, rep.Spans, rep.SpansDropped,
			rep.Mem.L2Hits, rep.Mem.L2Merges, rep.Mem.RowHits, rep.Mem.MergedL1)
		for _, ws := range rep.LeastProgressed {
			fmt.Fprintf(w, "  sm=%-2d warp=%-2d tb=%-4d progress=%-8d lifetime=%d\n",
				ws.SM, ws.Warp, ws.TB, ws.Progress, ws.Lifetime)
		}
	}
}

func splitScheds(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
