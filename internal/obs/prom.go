// Prometheus text exposition of a Registry.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promKind maps a series kind to the Prometheus TYPE keyword.
func (k metricKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): one # HELP and # TYPE pair
// per family, then one line per series. Families are sorted by name,
// so output is stable across scrapes and registration orders.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var lastFamily string
	for _, s := range r.snapshot() {
		if s.family != lastFamily {
			if s.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.family, escapeHelp(s.help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.family, s.kind.promType())
			lastFamily = s.family
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", seriesName(s.family, s.labels), s.c.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s %d\n", seriesName(s.family, s.labels), s.g.Value())
		case kindGaugeFunc:
			fmt.Fprintf(bw, "%s %s\n", seriesName(s.family, s.labels), formatFloat(s.fn()))
		case kindHistogram:
			writeHistogram(bw, s)
		}
	}
	return bw.Flush()
}

// seriesName renders family plus optional label body.
func seriesName(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

// withLabel appends one label pair to an existing (possibly empty)
// label body.
func withLabel(labels, k, v string) string {
	pair := k + `="` + v + `"`
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// writeHistogram renders the cumulative bucket lines plus _sum and
// _count. The le label goes after any constant labels.
func writeHistogram(w io.Writer, s *series) {
	h := s.h
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s %d\n",
			seriesName(s.family+"_bucket", withLabel(s.labels, "le", formatFloat(bound))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s %d\n",
		seriesName(s.family+"_bucket", withLabel(s.labels, "le", "+Inf")), cum)
	fmt.Fprintf(w, "%s %s\n", seriesName(s.family+"_sum", s.labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s %d\n", seriesName(s.family+"_count", s.labels), h.count.Load())
}

// escapeHelp escapes backslashes and newlines per the exposition
// format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry in Prometheus text format — mount it at
// /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
