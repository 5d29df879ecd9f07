package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/schedreg"
	"repro/internal/stats"
)

func testHarness(t *testing.T) *harness {
	t.Helper()
	h := newHarness(workloads[0], runOpts{seed: 1})
	h.tmp = t.TempDir()
	return h
}

// The timing decorator must be invisible to the simulation: the same
// bytes come out with and without it, for every registered policy, and
// the optional interfaces the engine keys its fast paths on survive it.
func TestDecoratorIsTransparent(t *testing.T) {
	js, err := smallJobs(1)
	if err != nil {
		t.Fatal(err)
	}
	launch := js[0].Launch
	for _, name := range schedreg.All() {
		bare, err := schedreg.New(name)
		if err != nil {
			t.Fatal(err)
		}
		var timers []*orderTimer
		wrapped := func(sm *engine.SM) engine.Scheduler {
			s, timer := decorate(bare(sm))
			timers = append(timers, timer)
			return s
		}
		want, err := gpu.Run(config.GTX480(), launch, bare, gpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := gpu.Run(config.GTX480(), launch, wrapped, gpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("%s: result changes under the decorator:\n bare      %s\n decorated %s", name, wantJSON, gotJSON)
		}
		var calls int64
		for _, timer := range timers {
			calls += timer.calls
		}
		if calls == 0 {
			t.Errorf("%s: decorator timed no Order call", name)
		}

		rig, err := newSMRig(1, churnProgram(), name)
		if err != nil {
			t.Fatal(err)
		}
		inner := rig.sm.Sched
		outer, _ := decorate(inner)
		_, innerCacher := inner.(engine.OrderCacher)
		_, outerCacher := outer.(engine.OrderCacher)
		_, innerTimed := inner.(engine.TimedScheduler)
		_, outerTimed := outer.(engine.TimedScheduler)
		if innerCacher != outerCacher || innerTimed != outerTimed {
			t.Errorf("%s: OrderCacher %v→%v, TimedScheduler %v→%v through the decorator",
				name, innerCacher, outerCacher, innerTimed, outerTimed)
		}
	}
}

func TestDecorateJobsKeepsIdentityOfPlainJobs(t *testing.T) {
	plain, err := smallJobs(1)
	if err != nil {
		t.Fatal(err)
	}
	before, err := jobKeys(plain)
	if err != nil {
		t.Fatal(err)
	}
	decorated, col, err := decorateJobs(plain)
	if err != nil {
		t.Fatal(err)
	}
	after, err := jobKeys(plain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if before[i] != after[i] {
			t.Errorf("decorateJobs changed the key of plain job %d", i)
		}
		if decorated[i].Factory == nil || schedulerOfKey(decorated[i].FactoryKey) != plain[i].Scheduler {
			t.Errorf("job %d: factory key %q does not name %s", i, decorated[i].FactoryKey, plain[i].Scheduler)
		}
	}
	if len(col.jobs) != len(plain) {
		t.Errorf("collector tracks %d jobs, want %d", len(col.jobs), len(plain))
	}
}

func TestSampleStatistics(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31) > 1e-12 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) gives [0.75, 1.5, 2.25].
	if q1, q3 := quartiles([]float64{1, 2}); math.Abs(q1-0.75) > 1e-12 || math.Abs(q3-2.25) > 1e-12 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestGoldenPinRekeyAndMismatch(t *testing.T) {
	r := &stats.KernelResult{Cycles: 10, WarpInstrs: 20, ThreadInstrs: 30, TBCount: 4}
	pins := map[string]goldenPin{"k/PRO": pinOf("key-1", r)}

	if rekeyed, failure := checkPin(pins, "k/PRO", "key-1", r); rekeyed || failure != "" {
		t.Errorf("matching result: rekeyed=%v failure=%q", rekeyed, failure)
	}
	if rekeyed, failure := checkPin(pins, "k/PRO", "key-2", r); !rekeyed || failure != "" {
		t.Errorf("changed key must be skipped, not failed: rekeyed=%v failure=%q", rekeyed, failure)
	}
	if rekeyed, failure := checkPin(pins, "other/PRO", "key-1", r); !rekeyed || failure != "" {
		t.Errorf("unpinned job must be skipped: rekeyed=%v failure=%q", rekeyed, failure)
	}
	changed := *r
	changed.Cycles++
	if rekeyed, failure := checkPin(pins, "k/PRO", "key-1", &changed); rekeyed || failure == "" {
		t.Errorf("mismatch under an unchanged key must fail: rekeyed=%v failure=%q", rekeyed, failure)
	}
}

func TestCheckResultsInvariants(t *testing.T) {
	h := testHarness(t)
	h.opts.seed = 2
	js := []jobs.Job{{Kernel: "k", Scheduler: "TL"}, {Kernel: "k", Scheduler: "PRO"}}
	same := &stats.KernelResult{Cycles: 9, WarpInstrs: 5, ThreadInstrs: 50, TBCount: 2}
	other := &stats.KernelResult{Cycles: 7, WarpInstrs: 6, ThreadInstrs: 50, TBCount: 2}
	golden := goldenFile{h.wl.name: {"k/TL": {Key: "pinned"}}}

	out := &passOut{jobs: js, keys: []string{"a", "b"}, results: []*stats.KernelResult{same, same}}
	if f := h.checkResults(golden, out); len(f) != 0 {
		t.Errorf("schedulers that executed the same work failed: %v", f)
	}
	out.results = []*stats.KernelResult{same, other}
	if f := h.checkResults(golden, out); len(f) != 1 {
		t.Errorf("a scheduler that executed different work gave %d failures, want 1: %v", len(f), f)
	}
	out.results = []*stats.KernelResult{same, same}
	out.keys = []string{"pinned", "b"}
	if f := h.checkResults(golden, out); len(f) != 1 {
		t.Errorf("a seed-2 job with the seed-1 key gave %d failures, want 1: %v", len(f), f)
	}
}

// golden.json must pin every job of every workload; a pin whose key no
// longer matches is only logged, since a deliberate re-key is legal.
func TestGoldenCoversEveryWorkload(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := seededWorkloads([]string{"cenergy", "MonteCarloOneBlockPerOption", "sha1_overlap", "aesEncrypt128"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	js := jobs.Grid(ws, paperSchedulers, 0, gpu.Options{})
	keys, err := jobKeys(js)
	if err != nil {
		t.Fatal(err)
	}
	for i := range js {
		pin, ok := golden["compute_grid"][jobLabel(&js[i])]
		if !ok {
			t.Errorf("compute_grid: %s is not pinned", jobLabel(&js[i]))
		} else if pin.Key != keys[i] {
			t.Logf("compute_grid: %s is rekeyed; run -update-golden", jobLabel(&js[i]))
		}
	}
	for _, w := range workloads {
		if len(golden[w.name]) == 0 {
			t.Errorf("golden.json pins nothing for %s", w.name)
		}
	}
}

func TestFidelityErrPct(t *testing.T) {
	var js []jobs.Job
	var rs []*stats.KernelResult
	for _, s := range paperSchedulers {
		js = append(js, jobs.Job{Kernel: "k", Scheduler: s})
	}
	// TL, LRR, GTO, PRO cycles giving speed-ups 1.13, 1.12, 1.02 exactly.
	for _, c := range []int64{11300, 11200, 10200, 10000} {
		rs = append(rs, &stats.KernelResult{Cycles: c})
	}
	if e, g := fidelityErrPct(js, rs); e > 1e-9 {
		t.Errorf("paper's own speed-ups give error %v%% (geomeans %v)", e, g)
	}
	rs[0] = &stats.KernelResult{Cycles: 12430} // 1.243 over TL: 10% off
	if e, _ := fidelityErrPct(js, rs); math.Abs(e-10) > 1e-9 {
		t.Errorf("error = %v%%, want 10%%", e)
	}
}

// Every layer driver must complete at least one operation and produce a
// finite, positive cost; -short shrinks them to one op each.
func TestLayerDriversRun(t *testing.T) {
	h := testHarness(t)
	shrink := 100
	if testing.Short() {
		shrink = 1 << 30
	}
	if err := runDrivers(h, shrink); err != nil {
		t.Fatal(err)
	}
	for _, d := range layerDrivers() {
		v := h.driver(d.metric)
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive finite cost", d.metric, v)
		}
	}
	for _, name := range []string{"resultcache.get_us", "resultcache.put_us", "resultcache.entry_bytes", "jobs.runjob_warm_us"} {
		if v := h.driver(name); !(v > 0) {
			t.Errorf("%s = %v, want positive", name, v)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := boundedMetric{Name: "wall_s", Better: "lower", Bound: 0.08}
	higher := boundedMetric{Name: "reqs_per_s", Better: "higher", Bound: 0.10}
	tight := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{v * 0.995, v, v * 1.005}}
	}
	wide := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{v * 0.8, v, v * 1.2}}
	}
	cases := []struct {
		name string
		m    boundedMetric
		a, b metricValue
		want string
	}{
		{"same", lower, tight(2), tight(2), verdictOK},
		{"slower within bound", lower, tight(2), tight(2.1), verdictOK},
		{"slower beyond bound", lower, tight(2), tight(2.3), verdictRegressed},
		{"faster", lower, tight(2), tight(1.5), verdictOK},
		{"throughput drop beyond bound", higher, tight(1000), tight(850), verdictRegressed},
		{"throughput rise", higher, tight(1000), tight(1500), verdictOK},
		{"spreads overlap", lower, wide(2), wide(2.3), verdictUnresolved},
		{"wide but every run better", lower, wide(2), wide(1), verdictOK},
		{"no samples", lower, metricValue{Value: 30}, metricValue{Value: 40}, verdictRegressed},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// -list, the metric tables and BENCHMARK.json must name the same things.
func TestBenchmarkJSONInSync(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the command defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.name)
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		checkName("metric", m.name)
		e := spec.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], the command %s [%s]", i, e.Name, e.Unit, m.name, m.unit)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("unit %q of %s is outside the contract's alphabet", m.unit, m.name)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better = %q", e.Name, e.Better)
		}
		if e.Bound == nil || *e.Bound < 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside [0, 0.25]", e.Name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(spec.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for i, m := range perLayer {
		checkName("metric", m.name)
		p := spec.PerLayer[i]
		if p.Name != m.name || p.Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], the command %s [%s]", i, p.Name, p.Unit, m.name, m.unit)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("unit %q of %s is outside the contract's alphabet", m.unit, m.name)
		}
		if p.Better != "lower" && p.Better != "higher" {
			t.Errorf("%s: better = %q", p.Name, p.Better)
		}
	}

	var listed bytes.Buffer
	printList(&listed)
	for name := range seen {
		if !bytes.Contains(listed.Bytes(), []byte("  "+name)) {
			t.Errorf("-list does not print %s", name)
		}
	}
}

func TestTracerWritesLoadableTrace(t *testing.T) {
	tr := newTracer()
	parent := 0
	tr.timed("outer", "main", parent, func() {})
	for i := 0; i < maxSpansPerName+5; i++ {
		tr.timed("many", "clients", parent, func() {})
	}
	dir := t.TempDir()
	if err := tr.write(dir, "unit"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace-unit.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
		}
		OtherData map[string]any
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans != maxSpansPerName+1 {
		t.Errorf("%d spans written, want %d", spans, maxSpansPerName+1)
	}
	if doc.OtherData["spans_dropped"] != float64(5) {
		t.Errorf("spans_dropped = %v, want 5", doc.OtherData["spans_dropped"])
	}
	// A nil tracer is the untraced run: every call is a no-op.
	var off *tracer
	off.setPass(1)
	if id, d := off.timed("x", "main", 0, func() {}); id != 0 || d < 0 {
		t.Errorf("nil tracer returned span %d, duration %v", id, d)
	}
	if err := off.write(dir, "off"); err != nil {
		t.Error(err)
	}
}
