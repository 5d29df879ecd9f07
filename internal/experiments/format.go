package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// proTraceOptions builds the PRO options for a Table IV trace run.
func proTraceOptions(threshold int64) []core.Option {
	opts := []core.Option{core.WithOrderTrace()}
	if threshold > 0 {
		opts = append(opts, core.WithThreshold(threshold))
	}
	return opts
}

// FormatFig4 renders Figure 4 as a text table.
func FormatFig4(f *Fig4) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — Speedup of PRO over baseline schedulers\n")
	fmt.Fprintf(&b, "%-28s %10s %10s %10s\n", "KERNEL", "vs TL", "vs LRR", "vs GTO")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-28s %9.3fx %9.3fx %9.3fx\n",
			r.Kernel, r.Over["TL"], r.Over["LRR"], r.Over["GTO"])
	}
	fmt.Fprintf(&b, "%-28s %9.3fx %9.3fx %9.3fx\n",
		"GEOMEAN", f.Geomean["TL"], f.Geomean["LRR"], f.Geomean["GTO"])
	return b.String()
}

// FormatFig1 renders the Fig. 1 stall composition for one scheduler.
func FormatFig1(sched string, rows []BreakdownRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1(%s) — stall composition per application\n", sched)
	fmt.Fprintf(&b, "%-14s %8s %8s %8s\n", "APP", "SB", "IDLE", "PIPE")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %7.1f%% %7.1f%% %7.1f%%\n",
			r.App, 100*r.SBFrac, 100*r.IdleFrac, 100*r.PipeFrac)
	}
	return b.String()
}

// FormatTable3 renders Table III.
func FormatTable3(t *Table3) string {
	var b strings.Builder
	b.WriteString("Table III — Improvement in stall cycles with PRO (ratio > 1: PRO has fewer)\n")
	fmt.Fprintf(&b, "%-14s | %10s %10s %10s | %s | %s | %s\n",
		"APP", "PRO Pipe", "PRO Idle", "PRO SB",
		"TL: Pipe Idle   SB  Tot", "LRR: Pipe Idle   SB  Tot", "GTO: Pipe Idle   SB  Tot")
	line := func(r StallRatios) string {
		return fmt.Sprintf("%5.2f %4.2f %5.2f %4.2f", r.Pipe, r.Idle, r.SB, r.Total)
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s | %10d %10d %10d |  %s |   %s |   %s\n",
			r.App, r.PRO.Pipeline, r.PRO.Idle, r.PRO.Scoreboard,
			line(r.Over["TL"]), line(r.Over["LRR"]), line(r.Over["GTO"]))
	}
	fmt.Fprintf(&b, "%-14s | %10s %10s %10s |  %s |   %s |   %s\n",
		"GEOMEAN", "", "", "",
		line(t.Geomean["TL"]), line(t.Geomean["LRR"]), line(t.Geomean["GTO"]))
	return b.String()
}

// FormatFig5 renders the Fig. 5 view (total-stall ratios per app).
func FormatFig5(t *Table3) string {
	var b strings.Builder
	b.WriteString("Fig. 5 — total stall-cycle ratio (baseline / PRO)\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s\n", "APP", "TL", "LRR", "GTO")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %7.2fx %7.2fx %7.2fx\n",
			r.App, r.Over["TL"].Total, r.Over["LRR"].Total, r.Over["GTO"].Total)
	}
	fmt.Fprintf(&b, "%-14s %7.2fx %7.2fx %7.2fx\n",
		"GEOMEAN", t.Geomean["TL"].Total, t.Geomean["LRR"].Total, t.Geomean["GTO"].Total)
	return b.String()
}

// FormatTimeline renders Fig. 2 raw data: one line per TB on SM sm (the
// SM spans were recorded on), in launch order, with start/end cycles and
// a coarse bar chart.
func FormatTimeline(title string, sm int, spans []stats.TBSpan, totalCycles int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 (%s) — thread blocks on SM %d (cycles, | = busy window)\n", title, sm)
	const width = 60
	for _, s := range spans {
		from := int(s.Start * width / totalCycles)
		to := int(s.End * width / totalCycles)
		if to <= from {
			to = from + 1
		}
		bar := strings.Repeat(" ", from) + strings.Repeat("|", to-from)
		fmt.Fprintf(&b, "TB %4d (#%2d) %9d..%-9d %s\n", s.TB, s.Slot, s.Start, s.End, bar)
	}
	return b.String()
}

// FormatOrderTrace renders Table IV: the sorted TB order on SM 0 at each
// sampling cycle, restricted to the SM's first batch of resident TBs
// (the paper shows the first six TBs that executed on SM 0). maxRows
// bounds the output; 0 means all samples.
func FormatOrderTrace(samples []stats.OrderSample, maxRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV — sorted TB order on SM 0 every threshold cycles (highest priority first)\n")
	fmt.Fprintf(&b, "%8s  %s\n", "CYCLE", "ORDER")
	if len(samples) == 0 {
		b.WriteString("(no samples)\n")
		return b.String()
	}
	batch := map[int]bool{}
	for _, tb := range samples[0].Order {
		batch[tb] = true
	}
	rows := 0
	for _, s := range samples {
		var shown []string
		for _, tb := range s.Order {
			if batch[tb] {
				shown = append(shown, fmt.Sprintf("%d", tb))
			}
		}
		if len(shown) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%8d  %s\n", s.Cycle, strings.Join(shown, " "))
		rows++
		if maxRows > 0 && rows >= maxRows {
			break
		}
	}
	return b.String()
}
