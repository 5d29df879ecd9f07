package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares side b with side a on one metric. The change is
// regressed when b's median is worse than a's by more than the bound.
// When either side's own spread (interquartile distance of its pass
// samples over their median) exceeds the bound, the two medians cannot be
// told apart at that resolution: the verdict is unresolved, unless every
// sample of b is better than every sample of a.
func judge(m boundedMetric, a, b metricValue) (verdict string, worse float64) {
	if a.Value == 0 {
		return verdictUnresolved, 0
	}
	worse = (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(m, a, b) {
			return verdictOK, worse
		}
		return verdictUnresolved, worse
	}
	if worse > m.Bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// spread is the interquartile distance of v's samples as a share of
// their median; a metric reported without samples has none.
func spread(v metricValue) float64 {
	if len(v.Samples) < 2 {
		return 0
	}
	med := median(v.Samples)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v.Samples)
	return (q3 - q1) / med
}

func samplesOf(v metricValue) []float64 {
	if len(v.Samples) > 0 {
		return v.Samples
	}
	return []float64{v.Value}
}

func allBetter(m boundedMetric, a, b metricValue) bool {
	for _, x := range samplesOf(b) {
		for _, y := range samplesOf(a) {
			if m.Better == "higher" && x <= y || m.Better != "higher" && x >= y {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per workload with a verdict per end-to-end
// metric, B against A under the bounds of the contract at specPath, and
// reports whether anything regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-14s missing on one side\n", wl.Name)
			continue
		}
		fmt.Fprintf(w, "%-14s", wl.Name)
		for _, m := range spec.EndToEnd {
			verdict, worse := judge(m, ra.Metrics[m.Name], rb.Metrics[m.Name])
			if verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, " %s=%s(%+.1f%%)", m.Name, verdict, 100*worse)
		}
		if rb.Failed > ra.Failed {
			regressed = true
			fmt.Fprintf(w, " failed_ops=%s(%d→%d)", verdictRegressed, ra.Failed, rb.Failed)
		}
		fmt.Fprintln(w)
	}
	return regressed, nil
}
