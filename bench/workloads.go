package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/schedreg"
	"repro/internal/stats"
	simwl "repro/internal/workloads"
	"repro/internal/xrand"
)

// workload is one set of inputs the benchmark runs. open performs the
// set-up of one pass — every pass starts from a fresh set-up, which is
// how setup_s gets several samples per run — and returns the instance
// whose run method is the timed pass.
type workload struct {
	name string
	// why is the one-line rationale BENCHMARK.json carries.
	why  string
	open func(h *harness) (instance, error)
	// simulates marks the workloads whose passes run the simulator under
	// the harness's eyes; their traced run adds a flight-recorded job.
	simulates bool
	// extras, when non-nil, takes the traced run's additional
	// measurements that need passes of their own.
	extras func(h *harness) error
}

// instance is one set-up workload.
type instance interface {
	// run executes one timed pass.
	run(h *harness) (*passOut, error)
	// close stops what open started and removes its files.
	close() error
}

// passOut is what one pass produced.
type passOut struct {
	// wall is the timed section of the pass.
	wall time.Duration
	// jobs and results are index-aligned: every simulation result the
	// pass obtained, with the named-scheduler job that identifies it.
	// keys holds the jobs' result-cache identities.
	jobs    []jobs.Job
	keys    []string
	results []*stats.KernelResult
	// cycles is the simulated cycles the pass delivered when that is not
	// the sum over results (serve_warm serves each result many times).
	cycles int64
	// reqMS holds the latencies of the requests completed within reqWall
	// (the whole of wall unless set).
	reqMS   []float64
	reqWall time.Duration
	// ops and failures count what the instance itself attempted and found
	// wrong; the result checks add to them.
	ops      int
	failures []string
}

// workloads lists the benchmark's workloads in reporting order. The names
// are fixed: later issues refer to them.
var workloads = []*workload{
	{
		name: "compute_grid",
		why:  "high-IPC kernels that barely touch global memory: engine issue path and scheduler order build dominate; memory-path changes must not show",
		open: simWorkload{
			kernels: []string{"cenergy", "MonteCarloOneBlockPerOption", "sha1_overlap", "aesEncrypt128"},
			workers: 1, smWorkers: 1,
		}.open,
		simulates: true,
	},
	{
		name: "memory_grid",
		why:  "near-100% L1/L2 miss, IPC<1: timing wheel, memsys, MSHR and DRAM rise and the engine scans stalled slots; counter-workload to compute_grid",
		open: simWorkload{
			kernels: []string{"bpnn_layerforward", "bpnn_adjust_weights_cuda", "mergeHistogram64Kernel", "scalarProdGPU"},
			maxTBs:  128,
			workers: 1, smWorkers: 1,
		}.open,
		simulates: true,
	},
	{
		name: "wide_gpu",
		why:  "56 SMs with auto SM workers: the only workload where the parallel tick, lane staging and the fan-out controller execute",
		open: simWorkload{
			kernels: []string{"calculate_temp", "dynproc_kernel"},
			numSMs:  56,
			workers: 1, smWorkers: 0,
		}.open,
		simulates: true,
	},
	{
		name:      "paper_suite",
		why:       "experiments.RunSuite over 18 full-grid Table II kernels on the default engine: what make report users feel, and where fidelity is stated",
		open:      openPaperSuite,
		simulates: true,
		extras:    paperSuiteExtras,
	},
	{
		name:   "serve_warm",
		why:    "closed-loop cache-hit requests through an in-process daemon: wire, admission, key hashing and result-cache reads; the simulator does no work",
		open:   openServeWarm,
		extras: serveWarmExtras,
	},
	{
		name: "sweep_cold",
		why:  "cold 100-job sweep through a coordinator and two daemons sharing a cache, then resume: sharding, streaming, cache writes beside simulation",
		open: openSweepCold,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// paperSchedulers is the paper's comparison set, PRO last.
var paperSchedulers = schedreg.Names()

// paperGeomean is PRO's geomean speed-up over TL, LRR and GTO in the
// paper (Fig. 4) — the only reference the reproduction has.
var paperGeomean = [3]float64{1.13, 1.12, 1.02}

// seededWorkloads returns the named Table II workloads (all of them for a
// nil list) in Table II order. Seed 1 leaves the launches as published;
// any other seed is folded into every Launch.Seed, which redraws
// divergence, imbalance and addresses but keeps programs and grids.
func seededWorkloads(kernels []string, seed uint64) ([]*simwl.Workload, error) {
	want := map[string]bool{}
	for _, k := range kernels {
		want[k] = true
	}
	var out []*simwl.Workload
	for _, w := range simwl.All() {
		if kernels != nil && !want[w.Kernel] {
			continue
		}
		delete(want, w.Kernel)
		dup := *w
		launch := *w.Launch
		if seed != 1 {
			launch.Seed ^= xrand.Hash64(seed)
		}
		dup.Launch = &launch
		out = append(out, &dup)
	}
	for k := range want {
		return nil, fmt.Errorf("unknown kernel %q", k)
	}
	return out, nil
}

// fidelityErrPct is the reproduction error of a set of results holding
// every kernel under TL, LRR, GTO and PRO: the largest relative distance
// between PRO's geomean speed-up over a baseline and the paper's figure.
func fidelityErrPct(js []jobs.Job, rs []*stats.KernelResult) (errPct float64, geomean [3]float64) {
	cycles := map[string]map[string]int64{}
	var kernels []string
	for i, j := range js {
		k := j.Label()
		if cycles[k] == nil {
			cycles[k] = map[string]int64{}
			kernels = append(kernels, k)
		}
		cycles[k][j.Scheduler] = rs[i].Cycles
	}
	for b, base := range experiments.BaselineOrder {
		var xs []float64
		for _, k := range kernels {
			if pro := cycles[k]["PRO"]; pro > 0 {
				xs = append(xs, float64(cycles[k][base])/float64(pro))
			}
		}
		geomean[b] = stats.Geomean(xs)
		if e := 100 * math.Abs(geomean[b]-paperGeomean[b]) / paperGeomean[b]; e > errPct {
			errPct = e
		}
	}
	return errPct, geomean
}

// progressLog hears the completion events of an engine or coordinator:
// each event's Elapsed is that job's request latency, and in a traced pass
// it closes the job's window.
type progressLog struct {
	elapsed []time.Duration
	col     *collector
}

func (p *progressLog) onEvent(ev jobs.Event) {
	p.elapsed = append(p.elapsed, ev.Elapsed)
	if p.col != nil {
		p.col.onProgress(ev)
	}
}

// takeMS returns the latencies heard since the last call, in ms.
func (p *progressLog) takeMS() []float64 {
	ms := make([]float64, len(p.elapsed))
	for i, e := range p.elapsed {
		ms[i] = e.Seconds() * 1e3
	}
	p.elapsed = p.elapsed[:0]
	return ms
}

// ---- the three jobs.Engine grids ----

// simWorkload is a batch of Table II kernels under the four paper
// schedulers on one local jobs.Engine.
type simWorkload struct {
	kernels   []string
	maxTBs    int
	numSMs    int // 0 keeps the GTX480's
	workers   int
	smWorkers int
}

type simInstance struct {
	plain    []jobs.Job // named schedulers: the identity golden.json pins
	keys     []string
	submit   []jobs.Job // plain, or decorated in a traced pass
	eng      *jobs.Engine
	log      progressLog
	listener bool
}

func (sw simWorkload) open(h *harness) (instance, error) {
	ws, err := seededWorkloads(sw.kernels, h.opts.seed)
	if err != nil {
		return nil, err
	}
	in := &simInstance{}
	in.plain = jobs.Grid(ws, paperSchedulers, sw.maxTBs, gpu.Options{})
	if sw.numSMs > 0 {
		cfg := config.GTX480()
		cfg.NumSMs = sw.numSMs
		for i := range in.plain {
			in.plain[i].Config = cfg
		}
	}
	if in.keys, err = jobKeys(in.plain); err != nil {
		return nil, err
	}
	in.submit = in.plain
	in.eng = &jobs.Engine{Workers: sw.workers, SMWorkers: sw.smWorkers, OnProgress: in.log.onEvent}
	if h.tracing() {
		in.submit, in.log.col, err = decorateJobs(in.plain)
		if err != nil {
			return nil, err
		}
		// These workloads start no daemon, so the process-wide heartbeat
		// listener is free for the harness.
		gpu.SetHeartbeat(in.log.col.onHeartbeat, 0)
		in.listener = true
	}
	return in, nil
}

func (in *simInstance) run(h *harness) (*passOut, error) {
	var rs []*stats.KernelResult
	var err error
	span, wall := h.tr.timed("jobs.Engine.Run", "main", h.passSpan, func() {
		rs, err = in.eng.Run(context.Background(), in.submit)
	})
	if err != nil {
		return nil, err
	}
	if in.log.col != nil {
		h.recordSimLayers(in.log.col, rs, span, wall, true)
	}
	return &passOut{wall: wall, jobs: in.plain, keys: in.keys, results: rs, reqMS: in.log.takeMS(), ops: len(rs)}, nil
}

func (in *simInstance) close() error {
	if in.listener {
		gpu.SetHeartbeat(nil, 0)
	}
	return nil
}

// ---- paper_suite ----

// paperSuiteSkipped are the Table II kernels paper_suite leaves out: the
// five that take over a second each at full grid, and the two backprop
// kernels memory_grid already covers.
var paperSuiteSkipped = map[string]bool{
	"kernel": true, "render": true, "findRageK": true, "findK": true,
	"mergeHistogram256Kernel": true,
	"bpnn_layerforward":       true, "bpnn_adjust_weights_cuda": true,
}

type paperInstance struct {
	ws      []*simwl.Workload
	plain   []jobs.Job
	keys    []string
	eng     *jobs.Engine
	log     progressLog
	runSpan int
}

// tracedRunner submits the suite's jobs inside the timing decorator; it is
// how the harness reaches jobs that experiments.RunSuite builds itself.
type tracedRunner struct {
	in *paperInstance
	h  *harness
}

func (r tracedRunner) Run(ctx context.Context, js []jobs.Job) (rs []*stats.KernelResult, err error) {
	submit, col, err := decorateJobs(js)
	if err != nil {
		return nil, err
	}
	r.in.log.col = col
	r.in.runSpan, _ = r.h.tr.timed("jobs.Engine.Run", "main", r.h.passSpan, func() {
		rs, err = r.in.eng.Run(ctx, submit)
	})
	return rs, err
}

func paperSuiteKernels() []string {
	var names []string
	for _, w := range simwl.All() {
		if !paperSuiteSkipped[w.Kernel] {
			names = append(names, w.Kernel)
		}
	}
	return names
}

func openPaperSuite(h *harness) (instance, error) {
	ws, err := seededWorkloads(paperSuiteKernels(), h.opts.seed)
	if err != nil {
		return nil, err
	}
	in := &paperInstance{ws: ws}
	in.plain = experiments.SuiteJobs(ws, paperSchedulers, 0)
	if in.keys, err = jobKeys(in.plain); err != nil {
		return nil, err
	}
	// The zero Engine is the default engine RunSuite would build for a nil
	// runner; it is spelled out only to hear job completions.
	in.eng = &jobs.Engine{OnProgress: in.log.onEvent}
	return in, nil
}

func (in *paperInstance) run(h *harness) (*passOut, error) {
	var runner jobs.Runner = in.eng
	if h.tracing() {
		runner = tracedRunner{in, h}
	}
	start := time.Now()
	suite, err := experiments.RunSuite(in.ws, paperSchedulers, 0, runner)
	if err != nil {
		return nil, err
	}
	var fig4 *experiments.Fig4
	var table3 *experiments.Table3
	_, compute := h.tr.timed("experiments.Compute", "main", h.passSpan, func() {
		fig4 = suite.ComputeFig4()
		table3 = suite.ComputeTable3()
	})
	wall := time.Since(start)

	rs := make([]*stats.KernelResult, 0, len(in.plain))
	for _, w := range in.ws {
		for _, s := range paperSchedulers {
			rs = append(rs, suite.Kernels[w.Kernel][s])
		}
	}
	out := &passOut{wall: wall, jobs: in.plain, keys: in.keys, results: rs, reqMS: in.log.takeMS(), ops: len(rs)}
	if in.log.col != nil {
		h.recordSimLayers(in.log.col, rs, in.runSpan, wall, false)
		h.sample("experiments.compute_ms", compute.Seconds()*1e3)
		for _, base := range experiments.BaselineOrder {
			suffix := strings.ToLower(base)
			h.sample("experiments.pro_geomean_vs_"+suffix, fig4.Geomean[base])
			h.sample("experiments.stall_ratio_vs_"+suffix, table3.Geomean[base].Total)
		}
	}
	return out, nil
}

func (in *paperInstance) close() error { return nil }

// paperSuiteExtras times one pass on a single worker: the serial side of
// jobs.parallel_speedup.
func paperSuiteExtras(h *harness) error {
	h.setTracing(false)
	opened, err := openPaperSuite(h)
	if err != nil {
		return err
	}
	in := opened.(*paperInstance)
	in.eng.Workers = 1
	out, err := in.run(h)
	if err != nil {
		return err
	}
	h.sample("jobs.parallel_speedup", out.wall.Seconds()/h.baseWall.Seconds())
	return nil
}

// ---- shared by every workload: the measuring loop ----

type runOpts struct {
	seed    uint64
	seconds float64
	traced  bool
	out     string
}

// harness carries one run's options, scratch space and measurements.
type harness struct {
	opts runOpts
	wl   *workload
	// tmp is the run's scratch directory (caches, sockets), removed on
	// exit. It is a relative path so unix socket names stay short.
	tmp string
	// tracer is the traced run's span store; tr is tracer while tracing is
	// switched on and nil otherwise (so is every untraced run's), and a
	// nil tracer records nothing. passSpan is the open pass's root span.
	tracer, tr *tracer
	passSpan   int
	// pinning is set by -update-golden: results are recorded, not gated.
	pinning bool

	// baseWall is the traced run's one untraced pass; lastOut the most
	// recent pass of any kind.
	baseWall time.Duration
	lastOut  *passOut
	// sweepRef caches sweep_cold's local reference results for the run.
	sweepRef     [][]byte
	sweepRefWall time.Duration

	setupS, wallS, cyclesPerS, reqsPerS []float64
	reqP50, reqP99                      []float64
	requests                            int
	layer                               map[string][]float64

	res *runResult
}

// sample records one per-layer observation; the reported value is the
// median over the traced passes.
func (h *harness) sample(name string, v float64) {
	h.layer[name] = append(h.layer[name], v)
}

// setTracing switches span recording and decoration on or off for the
// passes that follow.
func (h *harness) setTracing(on bool) {
	h.tr = nil
	if on {
		h.tr = h.tracer
	}
}

// tracing reports whether the pass being set up or run is a traced one.
func (h *harness) tracing() bool { return h.tr != nil }

// minPasses is the fewest timed passes a run makes, so every median has
// at least two samples behind it.
const minPasses = 2

// A pass repeats its set-up up to setupRepeats times while the
// repetitions stay within setupRepeatBudget.
const (
	setupRepeats      = 5
	setupRepeatBudget = 50 * time.Millisecond
)

// withTmp runs fn with h.tmp set to a fresh scratch directory under
// ./.tmp, removed afterwards whatever fn returns.
func (h *harness) withTmp(fn func() error) (err error) {
	if err := os.MkdirAll(".tmp", 0o755); err != nil {
		return err
	}
	if h.tmp, err = os.MkdirTemp(".tmp", "run-"); err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(h.tmp); rerr != nil && err == nil {
			err = rerr
		}
	}()
	// An interrupted run leaves no caches or sockets behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, interrupted := <-sig; interrupted {
			os.RemoveAll(h.tmp)
			os.Exit(1)
		}
	}()
	defer close(sig)
	return fn()
}

func newHarness(w *workload, opts runOpts) *harness {
	return &harness{
		opts: opts, wl: w,
		layer: map[string][]float64{},
		res: &runResult{
			Workload: w.name, Seed: opts.seed, Traced: opts.traced,
			Metrics: map[string]metricValue{}, Host: hostInfo(),
		},
	}
}

func runWorkload(w *workload, opts runOpts) (*runResult, error) {
	h := newHarness(w, opts)
	measure := h.measureEndToEnd
	if opts.traced {
		measure = h.measureLayers
	}
	if err := h.withTmp(measure); err != nil {
		return nil, err
	}
	h.res.Correct = h.res.Failed == 0
	for _, spec := range h.res.specs() {
		v := h.res.Metrics[spec.name]
		v.Unit = spec.unit
		h.res.Metrics[spec.name] = v
	}
	file := resultFile{Workloads: map[string]*runResult{w.name: h.res}}
	if err := writeJSON(resultPath(opts.out, w.name), file); err != nil {
		return nil, err
	}
	return h.res, nil
}

// measureEndToEnd is the untraced run: passes start while the budget is
// not used up, and the end-to-end metrics are medians over them.
func (h *harness) measureEndToEnd() error {
	budget := time.Duration(h.opts.seconds * float64(time.Second))
	for start, p := time.Now(), 0; p < minPasses || time.Since(start) < budget; p++ {
		if _, err := h.pass(p); err != nil {
			return err
		}
	}
	h.res.Passes = len(h.wallS)
	m := h.res.Metrics
	m["setup_s"] = metricValue{Value: median(h.setupS), Samples: h.setupS}
	m["wall_s"] = metricValue{Value: median(h.wallS), Samples: h.wallS}
	m["sim_cycles_per_s"] = metricValue{Value: median(h.cyclesPerS), Samples: h.cyclesPerS}
	m["reqs_per_s"] = metricValue{Value: median(h.reqsPerS), Samples: h.reqsPerS}
	m["req_p50_ms"] = metricValue{Value: median(h.reqP50), Samples: h.reqP50, N: h.requests}
	m["req_p99_ms"] = metricValue{Value: median(h.reqP99), Samples: h.reqP99, N: h.requests}
	m["peak_rss_mb"] = metricValue{Value: peakRSSMB()}
	return nil
}

// measureLayers is the traced run: the layer drivers, one pass with
// tracing off (the base of host.trace_overhead_pct), traced passes for
// half the budget, then the workload's extra measurements. A per-layer
// metric is the median over the traced passes; one nobody sampled reads
// n/a.
func (h *harness) measureLayers() error {
	h.tracer = newTracer()
	h.setTracing(true)
	if err := runDrivers(h, 1); err != nil {
		return err
	}
	h.setTracing(false)
	base, err := h.pass(0)
	if err != nil {
		return err
	}
	h.baseWall = base.wall

	h.setTracing(true)
	budget := time.Duration(h.opts.seconds / 2 * float64(time.Second))
	var tracedWall []float64
	for start, p := time.Now(), 0; p < 1 || time.Since(start) < budget; p++ {
		h.tracer.setPass(p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.passSpan = h.tracer.begin("pass", "main", 0)
		out, err := h.pass(p)
		if err != nil {
			return err
		}
		h.tracer.end(h.passSpan)
		h.passSpan = 0
		runtime.ReadMemStats(&after)
		tracedWall = append(tracedWall, out.wall.Seconds())
		h.sample("host.alloc_mb_per_pass", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		h.sample("host.mallocs_per_pass", float64(after.Mallocs-before.Mallocs))
		h.sample("host.gc_cycles_per_pass", float64(after.NumGC-before.NumGC))
	}
	h.res.Passes = len(tracedWall)
	h.sample("host.trace_overhead_pct", 100*(median(tracedWall)-base.wall.Seconds())/base.wall.Seconds())
	if h.wl.simulates {
		if err := h.flightExtras(h.lastOut.jobs, h.lastOut.results); err != nil {
			return err
		}
	}
	if h.wl.extras != nil {
		if err := h.wl.extras(h); err != nil {
			return err
		}
	}
	h.setTracing(false)
	n, err := nonTestGoLines("..")
	if err != nil {
		return err
	}
	h.sample("host.nontest_go_lines", float64(n))

	for _, spec := range perLayer {
		xs, ok := h.layer[spec.name]
		h.res.Metrics[spec.name] = metricValue{Value: median(xs), Samples: xs, NA: !ok}
	}
	return h.tracer.write(h.opts.out, h.wl.name)
}

// pass performs one fresh set-up, one timed pass and the untimed result
// checks, and folds their measurements into the harness.
func (h *harness) pass(p int) (*passOut, error) {
	// A collection here keeps the previous pass's garbage out of this
	// pass's timings.
	runtime.GC()
	// Set-up is everything a fresh process does before it can time a
	// pass: parse the golden pins, build the inputs and their cache keys,
	// open caches, start daemons. A cheap set-up is repeated (and torn
	// down again) so that setup_s has enough samples to take a median of;
	// an expensive one already dominates its own noise.
	var golden goldenFile
	var in instance
	for began, rep := time.Now(), 1; ; rep++ {
		t0 := time.Now()
		var err error
		if golden, err = loadGolden(); err != nil {
			return nil, err
		}
		if in, err = h.wl.open(h); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", h.wl.name, err)
		}
		h.setupS = append(h.setupS, time.Since(t0).Seconds())
		if rep == setupRepeats || time.Since(began) > setupRepeatBudget {
			break
		}
		if err := in.close(); err != nil {
			return nil, fmt.Errorf("%s: set-up: close: %w", h.wl.name, err)
		}
	}
	out, err := in.run(h)
	cerr := in.close()
	if err != nil {
		return nil, fmt.Errorf("%s: pass %d: %w", h.wl.name, p, err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("%s: pass %d: close: %w", h.wl.name, p, cerr)
	}

	out.failures = append(out.failures, h.checkResults(golden, out)...)
	h.res.Attempted += out.ops
	failed := len(out.failures)
	if failed > out.ops {
		failed = out.ops
	}
	h.res.Failed += failed
	for _, f := range out.failures {
		if len(h.res.Failures) < 20 {
			h.res.Failures = append(h.res.Failures, f)
		}
	}

	cycles := out.cycles
	if cycles == 0 {
		for _, r := range out.results {
			cycles += r.Cycles
		}
	}
	reqWall := out.reqWall
	if reqWall == 0 {
		reqWall = out.wall
	}
	h.wallS = append(h.wallS, out.wall.Seconds())
	h.cyclesPerS = append(h.cyclesPerS, float64(cycles)/out.wall.Seconds())
	h.reqsPerS = append(h.reqsPerS, float64(len(out.reqMS))/reqWall.Seconds())
	h.reqP50 = append(h.reqP50, percentile(out.reqMS, 50))
	h.reqP99 = append(h.reqP99, percentile(out.reqMS, 99))
	h.requests += len(out.reqMS)
	errPct, _ := fidelityErrPct(out.jobs, out.results)
	if prev, ok := h.res.Metrics["fidelity_err_pct"]; ok && prev.Value != errPct {
		h.fail("fidelity_err_pct differs between passes of one run: simulated results do not repeat")
	}
	h.res.Metrics["fidelity_err_pct"] = metricValue{Value: errPct}
	h.lastOut = out
	return out, nil
}

// fail records a failed op the pass accounting did not see.
func (h *harness) fail(msg string) {
	h.res.Failed++
	h.res.Failures = append(h.res.Failures, msg)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
