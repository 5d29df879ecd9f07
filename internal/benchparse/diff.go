package benchparse

import (
	"fmt"
	"sort"
	"strings"
)

// SnapshotSchema versions the bench-<sha>.json layout; bump on
// incompatible change so stale snapshots are skipped, not misread.
const SnapshotSchema = 1

// Snapshot is one recorded bench run, as persisted under
// results/bench-<git-sha>.json.
type Snapshot struct {
	Schema int    `json:"schema"`
	GitSHA string `json:"git_sha"`
	// Date is RFC 3339; snapshots are ordered by it when picking the
	// baseline to diff against.
	Date       string             `json:"date"`
	Benchmarks map[string]*Result `json:"benchmarks"`
	// Golden pins deterministic simulation outputs to their
	// content-addressed job identity: a cycle count is only comparable
	// across runs when the underlying job key (config + kernel +
	// scheduler + cache schema) is unchanged.
	Golden map[string]GoldenEntry `json:"golden,omitempty"`
}

// GoldenEntry pins one benchmark's simulated cycle count to the result
// cache key of the job that produced it.
type GoldenEntry struct {
	JobKey string `json:"job_key"`
	Cycles int64  `json:"cycles"`
}

// Thresholds bound how much a run may degrade before Diff reports a
// failure. Zero values mean "use the default".
type Thresholds struct {
	// MaxThroughputDrop is the tolerated fractional drop in any
	// rate-style metric (unit containing "/s"). Default 0.25.
	MaxThroughputDrop float64
	// MaxAllocRise is the tolerated fractional rise in allocs/op,
	// with an absolute slack of AllocSlack. Default 0.10.
	MaxAllocRise float64
	// AllocSlack is the absolute allocs/op rise always tolerated
	// (noise floor for tiny benchmarks). Default 16.
	AllocSlack float64
}

func (t Thresholds) withDefaults() Thresholds {
	if t.MaxThroughputDrop == 0 {
		t.MaxThroughputDrop = 0.25
	}
	if t.MaxAllocRise == 0 {
		t.MaxAllocRise = 0.10
	}
	if t.AllocSlack == 0 {
		t.AllocSlack = 16
	}
	return t
}

// Finding is one diff observation. Fail distinguishes regressions from
// informational notes.
type Finding struct {
	Bench string
	Fail  bool
	Msg   string
}

// Diff compares cur against base and returns findings, worst first.
// The rules mirror the repo's regression policy:
//
//   - any "/s" metric dropping more than MaxThroughputDrop fails;
//   - allocs/op rising more than MaxAllocRise (beyond AllocSlack) fails;
//   - a golden cycle count changing while its job key is unchanged
//     fails — determinism is exact, so any drift is a real behaviour
//     change, not noise;
//   - golden entries whose job key changed are reported as skipped
//     (the workload or config was deliberately altered);
//   - benchmarks and golden entries present in only one run are
//     informational, whether new in cur or removed since base.
func Diff(base, cur *Snapshot, t Thresholds) []Finding {
	t = t.withDefaults()
	var fs []Finding
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nb := cur.Benchmarks[name]
		ob, ok := base.Benchmarks[name]
		if !ok {
			fs = append(fs, Finding{Bench: name, Msg: "new benchmark (no baseline)"})
			continue
		}
		for unit, nv := range nb.Metrics {
			if !rateMetric(unit) {
				continue
			}
			ov, ok := ob.Metrics[unit]
			if !ok || ov <= 0 {
				continue
			}
			if drop := (ov - nv) / ov; drop > t.MaxThroughputDrop {
				fs = append(fs, Finding{Bench: name, Fail: true, Msg: fmt.Sprintf(
					"%s dropped %.1f%% (%.0f -> %.0f, limit %.0f%%)",
					unit, drop*100, ov, nv, t.MaxThroughputDrop*100)})
			}
		}
		if ob.AllocsOp >= 0 && nb.AllocsOp >= 0 {
			rise := nb.AllocsOp - ob.AllocsOp
			if rise > t.AllocSlack && rise > ob.AllocsOp*t.MaxAllocRise {
				fs = append(fs, Finding{Bench: name, Fail: true, Msg: fmt.Sprintf(
					"allocs/op rose %.1f%% (%.0f -> %.0f, limit %.0f%% + %.0f)",
					rise/ob.AllocsOp*100, ob.AllocsOp, nb.AllocsOp,
					t.MaxAllocRise*100, t.AllocSlack)})
			}
		}
	}
	fs = append(fs, removed(base.Benchmarks, cur.Benchmarks, "removed benchmark (was in baseline)")...)
	gnames := make([]string, 0, len(cur.Golden))
	for name := range cur.Golden {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		ng := cur.Golden[name]
		og, ok := base.Golden[name]
		switch {
		case !ok:
			fs = append(fs, Finding{Bench: name, Msg: "new golden entry (no baseline)"})
		case og.JobKey != ng.JobKey:
			fs = append(fs, Finding{Bench: name, Msg: "job key changed; cycle comparison skipped"})
		case og.Cycles != ng.Cycles:
			fs = append(fs, Finding{Bench: name, Fail: true, Msg: fmt.Sprintf(
				"golden cycles changed with identical job key: %d -> %d (simulation behaviour drift)",
				og.Cycles, ng.Cycles)})
		}
	}
	fs = append(fs, removed(base.Golden, cur.Golden, "removed golden entry (was in baseline)")...)
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Fail && !fs[j].Fail })
	return fs
}

// removed reports, in name order, the entries of base that cur no longer
// has, so a benchmark dropped from the run shows up in the trajectory
// instead of silently ending it.
func removed[V any](base, cur map[string]V, msg string) []Finding {
	var fs []Finding
	for name := range base {
		if _, ok := cur[name]; !ok {
			fs = append(fs, Finding{Bench: name, Msg: msg})
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Bench < fs[j].Bench })
	return fs
}

// rateMetric matches the aggregation rule in merge: "/s" units are
// throughputs (bigger is better, max-aggregated), everything else is a
// deterministic simulation output.
func rateMetric(unit string) bool { return strings.Contains(unit, "/s") }
