package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/schedreg"
)

// metricSpec names one reported metric. The two lists below are the
// benchmark's vocabulary: BENCHMARK.json repeats them (with direction and
// bound), -list prints them, and a test keeps the two in sync.
type metricSpec struct {
	name, unit string
}

// endToEnd is what a user of the system sees; every workload reports all
// of them in an untraced run (README.md defines each on each workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"peak_rss_mb", "MB"},
	{"fidelity_err_pct", "%"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"reqs_per_s", "1/s"},
}

// perLayer is reported by a traced run, one group per package on the
// path. A layer the workload bypasses reads n/a in the table and 0 in
// the JSON line.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"gpu.sim_cycles", "cycles"},
		{"gpu.loop_iters", "count"},
		{"gpu.ff_skip_share", "ratio"},
		{"gpu.host_ns_per_sim_cycle", "ns"},
		{"gpu.host_ns_per_warp_instr", "ns"},
		{"gpu.sm_workers", "count"},
		{"gpu.par_tick_share", "ratio"},
		{"gpu.tick_ns_per_cycle", "ns"},
		{"gpu.commit_ns_per_cycle", "ns"},
		{"gpu.lane_ops_per_drain", "count"},

		{"engine.warp_instrs", "count"},
		{"engine.ipc", "1/cycle"},
		{"engine.stall_idle", "count"},
		{"engine.stall_scoreboard", "count"},
		{"engine.stall_pipeline", "count"},
		{"engine.issue_slot_util", "ratio"},
		{"engine.sm_tick_ns.issue", "ns"},
		{"engine.sm_tick_ns.memstall", "ns"},
		{"engine.tb_churn_ns", "ns"},

		{"sched.order_calls", "count"},
		{"sched.order_ns_per_call", "ns"},
		{"sched.order_busy_share", "ratio"},
		{"core.order_calls", "count"},
		{"core.order_ns_per_call", "ns"},
		{"core.order_busy_share", "ratio"},
	}
	for _, name := range schedreg.All() {
		m = append(m, metricSpec{"sched.order_build_ns." + name, "ns"})
	}
	return append(m, []metricSpec{
		{"memsys.load_hit_ns", "ns"},
		{"memsys.load_miss_ns", "ns"},
		{"memsys.store_ns", "ns"},
		{"memsys.idle_tick_ns", "ns"},
		{"memsys.reqs_per_kcycle", "1/kcycle"},
		{"memsys.lat.icnt_req", "cycles"},
		{"memsys.lat.l2_service", "cycles"},
		{"memsys.lat.l2_mshr", "cycles"},
		{"memsys.lat.dram_queue", "cycles"},
		{"memsys.lat.dram_service", "cycles"},
		{"memsys.lat.icnt_resp", "cycles"},

		{"cache.l1_accesses", "count"},
		{"cache.l1_miss_rate", "ratio"},
		{"cache.l2_accesses", "count"},
		{"cache.l2_miss_rate", "ratio"},
		{"cache.access_hit_ns", "ns"},
		{"cache.access_miss_fill_ns", "ns"},
		{"cache.mshr_add_fill_ns", "ns"},

		{"dram.reqs", "count"},
		{"dram.row_hit_rate", "ratio"},
		{"dram.enqueue_ns", "ns"},
		{"dram.tick_ns.q4", "ns"},
		{"dram.tick_ns.q32", "ns"},

		{"icnt.send_ns", "ns"},

		{"timing.schedule_advance_ns_per_event", "ns"},
		{"timing.schedule_batch_ns_per_event", "ns"},
		{"timing.wakeheap_set_min_ns", "ns"},

		{"share.sched", "ratio"},
		{"share.memsys_est", "ratio"},
		{"share.timing_est", "ratio"},
		{"share.engine_est", "ratio"},

		{"jobs.run_overhead_ms", "ms"},
		{"jobs.key_us", "us"},
		{"jobs.runjob_warm_us", "us"},
		{"jobs.parallel_speedup", "ratio"},

		{"resultcache.get_us", "us"},
		{"resultcache.put_us", "us"},
		{"resultcache.entry_bytes", "bytes"},
		{"resultcache.hits", "count"},
		{"resultcache.misses", "count"},
		{"resultcache.writes", "count"},

		{"daemon.req_us.single", "us"},
		{"daemon.self_us", "us"},
		{"daemon.batch25_ms", "ms"},
		{"daemon.batch_jobs_per_s", "1/s"},
		{"daemon.req_p999_ms", "ms"},
		{"daemon.rejected", "count"},
		{"daemon.simulated_during_warm", "count"},

		{"cluster.dispatched", "count"},
		{"cluster.steals", "count"},
		{"cluster.retries", "count"},
		{"cluster.merge_hits", "count"},
		{"cluster.resume_ms", "ms"},
		{"cluster.overhead_pct", "%"},

		{"experiments.compute_ms", "ms"},
		{"experiments.pro_geomean_vs_tl", "ratio"},
		{"experiments.pro_geomean_vs_lrr", "ratio"},
		{"experiments.pro_geomean_vs_gto", "ratio"},
		{"experiments.stall_ratio_vs_tl", "ratio"},
		{"experiments.stall_ratio_vs_lrr", "ratio"},
		{"experiments.stall_ratio_vs_gto", "ratio"},

		{"host.alloc_mb_per_pass", "MB"},
		{"host.mallocs_per_pass", "count"},
		{"host.gc_cycles_per_pass", "count"},
		{"host.trace_overhead_pct", "%"},
		{"host.nontest_go_lines", "count"},
	}...)
}

// printList prints every name exactly as BENCHMARK.json spells it.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %s\n", wl.name)
	}
	fmt.Fprintln(w, "end_to_end:")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %s %s\n", m.name, m.unit)
	}
	fmt.Fprintln(w, "per_layer:")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %s %s\n", m.name, m.unit)
	}
}

// metricValue is one reported number. Samples holds the values a median
// was taken over — one per pass, or per set-up — which is what -compare
// reads spreads from; N is the number of requests behind the per-pass
// percentiles; NA marks a per-layer metric whose layer the workload
// bypasses.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
	N       int       `json:"n,omitempty"`
	NA      bool      `json:"na,omitempty"`
}

// runResult is everything one workload run reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Passes    int                    `json:"passes"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Rekeyed   int                    `json:"rekeyed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Host      host                   `json:"host"`
}

// resultFile is what -out holds and -compare reads: one workload per
// result-<name>.json, all of them in the results.json that -all merges.
type resultFile struct {
	Workloads map[string]*runResult `json:"workloads"`
}

func resultPath(out, workload string) string {
	return filepath.Join(out, "result-"+workload+".json")
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// specs returns the metric list this run reports.
func (r *runResult) specs() []metricSpec {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// print writes the header, the metric table, and — as the last line —
// the JSON object the benchmark contract asks for.
func (r *runResult) print(w io.Writer) error {
	fmt.Fprintf(w, "# bench workload=%s seed=%d traced=%v passes=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		r.Workload, r.Seed, r.Traced, r.Passes, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	for _, m := range r.specs() {
		v := r.Metrics[m.name]
		switch {
		case v.NA:
			fmt.Fprintf(w, "%-40s %16s %s\n", m.name, "n/a", m.unit)
		case len(v.Samples) > 0 && v.N > 0:
			fmt.Fprintf(w, "%-40s %16.6g %s (median of %d, %d requests)\n", m.name, v.Value, m.unit, len(v.Samples), v.N)
		case len(v.Samples) > 0:
			fmt.Fprintf(w, "%-40s %16.6g %s (median of %d)\n", m.name, v.Value, m.unit, len(v.Samples))
		default:
			fmt.Fprintf(w, "%-40s %16.6g %s\n", m.name, v.Value, m.unit)
		}
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-40s %16.6g ratio (%d failed of %d ops; %d rekeyed golden pins skipped)\n",
		"failed_share", share, r.Failed, r.Attempted, r.Rekeyed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}

	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]wire{}}
	for _, m := range r.specs() {
		last.Metrics[m.name] = wire{r.Metrics[m.name].Value, m.unit}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive), which is what the
// benchmark contract measures spreads with. Fewer than two samples have
// no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
