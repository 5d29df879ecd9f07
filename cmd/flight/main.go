// Command flight runs kernels under the flight recorder and renders
// the capture: an aggregated stall-attribution report (kernel ×
// scheduler table of mean memory latency split by lifecycle component,
// plus the top-N least-progressed warps), a Perfetto/Chrome trace-event
// JSON file loadable at ui.perfetto.dev, or raw NDJSON for downstream
// tooling.
//
// Unlike the other harnesses it never uses a result cache: a cached
// result was not executed, so it has no flight to record.
//
// Usage:
//
//	flight -kernel scalarProdGPU -scheds LRR,PRO                # report to stdout
//	flight -kernel scalarProdGPU -scheds PRO -format perfetto -out pro.trace.json
//	flight -kernel BlackScholes -scheds GTO -format ndjson -out gto.ndjson
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/flight"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workloads"
	"repro/prosim"
)

func main() {
	kernel := flag.String("kernel", "scalarProdGPU", "Table II kernel to record")
	scheds := flag.String("scheds", "LRR,PRO",
		"comma-separated schedulers (report compares them; perfetto/ndjson need exactly one)")
	maxTBs := flag.Int("maxtbs", 0, "shrink grid (0 = full)")
	format := flag.String("format", "report", "output format: report | perfetto | ndjson")
	out := flag.String("out", "", "output file (default stdout)")
	warpSample := flag.Int("warp-sample", 1, "record warp-level events for every Nth warp slot (1 = all)")
	memSample := flag.Int("mem-sample", 1, "record every Nth memory transaction as a span (1 = all)")
	ringEvents := flag.Int("ring-events", 0, fmt.Sprintf("per-SM event ring capacity (0 = %d)", flight.DefaultRingEvents))
	ringSpans := flag.Int("ring-spans", 0, fmt.Sprintf("memory-span ring capacity (0 = %d)", flight.DefaultRingSpans))
	topN := flag.Int("topn", flight.DefaultTopN, "least-progressed warps listed per scheduler in the report")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	if _, err := logCfg.Setup(); err != nil {
		fatal(err)
	}

	w, err := workloads.ByKernel(*kernel)
	if err != nil {
		fatal(err)
	}
	if *maxTBs > 0 {
		w = w.Shrunk(*maxTBs)
	}
	names := splitScheds(*scheds)
	if len(names) == 0 {
		fatal(fmt.Errorf("no schedulers given"))
	}
	if *format != "report" && len(names) != 1 {
		fatal(fmt.Errorf("format %q writes one capture: give exactly one scheduler (got %d)", *format, len(names)))
	}

	fopts := flight.Options{
		WarpSample: *warpSample, MemSample: *memSample,
		RingEvents: *ringEvents, RingSpans: *ringSpans, TopN: *topN,
	}

	// No cache directory on purpose: every run must actually execute.
	eng, err := jobs.New(1, "", nil)
	if err != nil {
		fatal(err)
	}

	dst := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		dst = f
	}

	var reports []flight.Report
	for _, sched := range names {
		rec := flight.New(fopts)
		_, err := eng.RunOne(context.Background(), jobs.Job{
			Launch:    w.Launch,
			Kernel:    w.Kernel,
			Scheduler: sched,
			Options:   prosim.Options{Flight: rec},
		})
		if err != nil {
			fatal(err)
		}
		switch *format {
		case "perfetto":
			if err := rec.Capture().WritePerfetto(dst); err != nil {
				fatal(err)
			}
		case "ndjson":
			if err := rec.Capture().WriteNDJSON(dst); err != nil {
				fatal(err)
			}
		case "report":
			reports = append(reports, rec.Report())
		default:
			fatal(fmt.Errorf("unknown format %q", *format))
		}
	}
	if *format == "report" {
		writeReportTable(dst, reports)
	}
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
			m.Spans, m.MeanTotal, m.MeanICNTReq, m.MeanL2Service, m.MeanL2MSHR,
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flight:", err)
	os.Exit(1)
}
