// Package jobs is the parallel simulation job engine. Every evaluation
// harness in the repository — prosim report, papercheck and sweep,
// the bench suite — boils down to a batch of independent, deterministic
// (config, launch, policy, options) simulations; this package fans such
// a batch across a worker pool sized to the machine and memoizes each
// result in an optional content-addressed disk cache, so a warm re-run
// performs zero simulations.
//
// Determinism: results are returned indexed by job position, never by
// completion order, so a batch run at Workers=8 is byte-identical to
// the same batch run at Workers=1 (the simulator itself is
// deterministic). Panics inside a job are captured and surfaced as that
// job's error rather than crashing the pool, and a context cancel (or
// the first failing job) stops the remaining work promptly.
package jobs

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/schedreg"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Process-wide job telemetry (internal/obs). Counters aggregate over
// every engine in the process; the gauge describes whatever batches are
// running now. All updates are O(1) atomics at job granularity — the
// simulation cycle loop itself is never touched.
var (
	mSimulated = obs.NewCounter("jobs_simulated_total", "jobs that ran the simulator")
	mReplayed  = obs.NewCounter("jobs_replayed_total", "jobs served from the result cache")
	mFailed    = obs.NewCounter("jobs_failed_total", "jobs that returned an error (panics included)")
	mBusy      = obs.NewGauge("jobs_workers_busy", "workers currently executing a job")
	mSimCycles = obs.NewCounter("jobs_sim_cycles_total", "simulated GPU cycles summed over simulated jobs")
	mSimTime   = obs.NewHistogram("jobs_sim_duration_seconds", "wall time of simulated (non-cached) jobs", nil)
)

// Job describes one simulation. Scheduler is a policy spec
// (schedreg.Resolve); alternatively Factory supplies an explicit policy, in
// which case FactoryKey must be a stable string identifying its exact
// parameters for the result cache — with Factory set and FactoryKey
// empty the job still runs but is never cached (an anonymous policy has
// no trustworthy identity).
type Job struct {
	// Config is the simulated GPU; nil means the paper's GTX480.
	Config *config.Config
	// Launch is the kernel launch to simulate.
	Launch *engine.Launch
	// Kernel labels the job in progress events; defaults to the
	// program name.
	Kernel string
	// Scheduler is a policy spec: a registered name or a parameterized
	// form such as "PRO+threshold=500" (ignored when Factory is set).
	Scheduler string
	// Factory overrides Scheduler with an explicit policy.
	Factory engine.Factory
	// FactoryKey is the cache identity of Factory (e.g.
	// "PRO+threshold=500").
	FactoryKey string
	// Options tune the run.
	Options gpu.Options
	// Cost is the job's expected relative run time (any consistent unit;
	// Grid uses launch threads = grid TBs × block size). The engine
	// dispatches expensive jobs first so the worker pool doesn't end on
	// one long straggler; zero-cost jobs keep batch order. Cost never
	// affects results or their order, only scheduling.
	Cost int64
}

// Label returns the display name of the job's kernel — what progress
// events and daemon streams report.
func (j *Job) Label() string {
	if j.Kernel != "" {
		return j.Kernel
	}
	if j.Launch != nil && j.Launch.Program != nil {
		return j.Launch.Program.Name
	}
	return "?"
}

// SchedLabel returns the display name of the job's scheduling policy.
func (j *Job) SchedLabel() string {
	if j.Factory != nil {
		if j.FactoryKey != "" {
			return j.FactoryKey
		}
		return "custom"
	}
	return j.Scheduler
}

// Event reports the completion of one job to the progress callback.
type Event struct {
	// Kernel and Scheduler identify the finished job.
	Kernel, Scheduler string
	// Done and Total count completed jobs and the batch size.
	Done, Total int
	// FromCache is true when the result was replayed, not simulated.
	FromCache bool
	// CacheHits counts replayed results so far in this batch.
	CacheHits int
	// Elapsed is the wall time since the batch started; ETA estimates
	// the remaining wall time from the mean pace so far.
	Elapsed, ETA time.Duration
}

// Simulated counts the jobs of this batch that actually ran the
// simulator.
func (e Event) Simulated() int { return e.Done - e.CacheHits }

// Runner executes batches of simulation jobs and returns one result per
// job, in job order. Both the local Engine and the daemon client
// (internal/daemon) implement it, so harness code can target either a
// worker pool in-process or a long-running simulation service.
type Runner interface {
	Run(ctx context.Context, js []Job) ([]*stats.KernelResult, error)
}

// Engine runs batches of jobs. The zero value is valid: NumCPU workers,
// no cache, no progress reporting.
type Engine struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU().
	Workers int
	// Deprecated: SMWorkers configured the removed intra-simulation
	// parallel tick (DESIGN.md §12) and is ignored. The field survives
	// only because bench/, which this tree may not edit, sets it.
	SMWorkers int
	// Cache, when non-nil, memoizes results on disk.
	Cache *resultcache.Cache
	// OnProgress, when non-nil, is called after every job completion.
	// Calls are serialized; keep the callback fast.
	OnProgress func(Event)

	// Engine-lifetime counters, summed over every batch this engine ran
	// (a harness typically runs several: the main suite, timelines,
	// traces).
	completed atomic.Int64
	replayed  atomic.Int64
}

// Completed returns the number of jobs finished over the engine's
// lifetime.
func (e *Engine) Completed() int64 { return e.completed.Load() }

// Replayed returns how many of the completed jobs came from the cache.
func (e *Engine) Replayed() int64 { return e.replayed.Load() }

// Simulated returns how many of the completed jobs actually ran the
// simulator.
func (e *Engine) Simulated() int64 { return e.completed.Load() - e.replayed.Load() }

// New builds an engine with workers pool slots (<= 0 means NumCPU) and,
// when cacheDir is non-empty, a result cache in that directory.
func New(workers int, cacheDir string, progress func(Event)) (*Engine, error) {
	e := &Engine{Workers: workers, OnProgress: progress}
	if cacheDir != "" {
		c, err := resultcache.Open(cacheDir)
		if err != nil {
			return nil, err
		}
		e.Cache = c
	}
	return e, nil
}

// cacheKey is the JSON-encoded identity of a simulation. Struct fields
// marshal in declaration order, so the encoding is stable.
type cacheKey struct {
	Config    *config.Config
	Launch    *engine.Launch
	Scheduler string
	Options   gpu.Options
}

// Run executes the batch and returns one result per job, in job order.
// On error (including a captured panic or a context cancel) the partial
// results are discarded and the first failure is returned.
func (e *Engine) Run(ctx context.Context, js []Job) ([]*stats.KernelResult, error) {
	if len(js) == 0 {
		return nil, nil
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	lanes := make([]func(context.Context, int) (*stats.KernelResult, bool, error), min(workers, len(js)))
	for k := range lanes {
		lanes[k] = func(ctx context.Context, i int) (*stats.KernelResult, bool, error) {
			r, fromCache, err := e.runOne(ctx, &js[i], "", nil)
			if err == nil {
				e.count(fromCache)
			}
			return r, fromCache, err
		}
	}
	// Dispatch longest-expected jobs first (stable, so equal costs keep
	// batch order) to cut tail latency; results[i] still lands at the
	// job's input position.
	order := make([]int, len(js))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return js[order[a]].Cost > js[order[b]].Cost
	})
	results := make([]*stats.KernelResult, len(js))
	if err := Dispatch(ctx, js, order, results, lanes, e.OnProgress); err != nil {
		return nil, err
	}
	return results, nil
}

// resolve returns the policy factory for j and the stable scheduler
// identity the result cache keys it under: the spec itself, which for a
// parameterized spec equals the FactoryKey of the same explicit factory.
// The identity is "" for an anonymous factory (Factory set, FactoryKey
// empty): such a job runs but can be neither cached nor deduped.
func (j *Job) resolve() (engine.Factory, string, error) {
	if j.Factory != nil {
		return j.Factory, j.FactoryKey, nil
	}
	f, err := schedreg.Resolve(j.Scheduler)
	if err != nil {
		return nil, "", err
	}
	return f, j.Scheduler, nil
}

// defaultConfig stands in for a nil Job.Config; shared, because keying
// and simulation only read a config (a batch's jobs already share one).
var defaultConfig = config.GTX480()

// key hashes j's identity under the resolved scheduler identity schedID
// at the schema version of the engine's cache (the current one without).
func (e *Engine) key(j *Job, schedID string) (string, error) {
	desc := cacheKey{Config: j.Config, Launch: j.Launch, Scheduler: schedID, Options: j.Options}
	if desc.Config == nil {
		desc.Config = defaultConfig
	}
	if e.Cache != nil {
		return e.Cache.Key(desc)
	}
	return resultcache.Key(resultcache.SchemaVersion, desc)
}

// Key returns the content-addressed identity of j — the exact key the
// result cache files its entry under — and whether j has one (jobs with
// an anonymous factory do not). The key is stable across processes and
// engines at the same cache schema version, which is what lets a daemon
// dedupe in-flight work submitted by independent clients.
func (e *Engine) Key(j *Job) (key string, ok bool, err error) {
	_, schedID, err := j.resolve()
	if err != nil || schedID == "" {
		return "", false, err
	}
	key, err = e.key(j, schedID)
	return key, err == nil, err
}

// Key returns the content-addressed identity of j without needing an
// engine or an open cache: the same key Engine.Key computes at the
// current schema version. The cluster coordinator uses it to merge
// batches by the exact identity the result cache files entries under.
func Key(j *Job) (key string, ok bool, err error) {
	var e Engine
	return e.Key(j)
}

// runOne resolves, memoizes and executes a single job, converting any
// panic into an error. ctx aborts an in-flight simulation within a
// bounded delay (see gpu.RunContext). key is j's Engine.Key when the
// caller already holds it; given "", runOne computes it if anything
// needs it. slot, when non-nil, gates the simulation (see RunJobKeyed).
// Every call feeds the process metrics.
func (e *Engine) runOne(ctx context.Context, j *Job, key string, slot Slot) (r *stats.KernelResult, fromCache bool, err error) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
		observeDone(r, fromCache, time.Since(start), err)
	}()

	cfg := j.Config
	if cfg == nil {
		cfg = defaultConfig
	}
	factory, schedID, err := j.resolve()
	if err != nil {
		return nil, false, err
	}

	cacheable := e.Cache != nil && schedID != ""
	if key == "" && cacheable {
		if key, err = e.key(j, schedID); err != nil {
			return nil, false, err
		}
	}
	if cacheable {
		if cached, ok := e.Cache.Get(key); ok {
			return cached, true, nil
		}
	}

	if slot != nil {
		var release func()
		if ctx, release, err = slot(ctx); err != nil {
			return nil, false, err
		}
		defer release()
		start = time.Now() // jobs_sim_duration_seconds times the run, not the wait
	}
	mBusy.Add(1)
	defer mBusy.Add(-1)
	// Worker goroutines run under pprof labels so `make profile`
	// artifacts attribute hot paths per workload.
	pprof.Do(ctx, pprof.Labels(
		"kernel", j.Label(), "scheduler", j.SchedLabel(), "job_key", key,
	), func(ctx context.Context) {
		r, err = gpu.RunContext(ctx, cfg, j.Launch, factory, j.Options)
	})
	if err != nil {
		return nil, false, err
	}
	if cacheable {
		// A failed write (a full disk, an unwritable directory) costs
		// only a later re-simulation, never this job's result; it shows
		// as jobs_simulated_total running ahead of resultcache_writes_total.
		_ = e.Cache.Put(key, r)
	}
	return r, false, nil
}

// observeDone records one finished runOne in the process metrics. err
// covers failures and captured panics.
func observeDone(r *stats.KernelResult, fromCache bool, dur time.Duration, err error) {
	switch {
	case err != nil:
		mFailed.Inc()
	case fromCache:
		mReplayed.Inc()
	default:
		mSimulated.Inc()
		mSimCycles.Add(r.Cycles)
		mSimTime.Observe(dur.Seconds())
	}
}

// RunJob executes one job synchronously on the caller's goroutine,
// bypassing the batch worker pool but keeping the cache and the
// engine-lifetime counters — the daemon's per-job entry point, where
// concurrency, progress streaming and dedupe live above the engine. It
// additionally reports whether the result was replayed from the cache.
func (e *Engine) RunJob(ctx context.Context, j *Job) (*stats.KernelResult, bool, error) {
	return e.RunJobKeyed(ctx, j, "", nil)
}

// Slot gates one simulation: it blocks until the caller may simulate and
// returns the context to simulate under and the function that ends the
// simulation's hold, or an error that ends the job.
type Slot func(ctx context.Context) (context.Context, func(), error)

// RunJobKeyed is RunJob for a caller that already computed j's key and
// bounds its own simulations: key must be what e.Key(j) returned ("" when
// j has none), and saves the engine hashing the job a second time. slot,
// when non-nil, is called after a cache miss, and only then, so a cached
// result never waits for it.
func (e *Engine) RunJobKeyed(ctx context.Context, j *Job, key string, slot Slot) (*stats.KernelResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("jobs: %w", err)
	}
	r, fromCache, err := e.runOne(ctx, j, key, slot)
	if err != nil {
		return nil, false, fmt.Errorf("jobs: job (%s/%s): %w", j.Label(), j.SchedLabel(), err)
	}
	e.count(fromCache)
	return r, fromCache, nil
}

// count adds one completed job to the engine-lifetime counters.
func (e *Engine) count(fromCache bool) {
	e.completed.Add(1)
	if fromCache {
		e.replayed.Add(1)
	}
}

// RunOne is the single-job convenience: it runs j synchronously through
// the engine (cache included) and returns its result.
func (e *Engine) RunOne(ctx context.Context, j Job) (*stats.KernelResult, error) {
	rs, err := e.Run(ctx, []Job{j})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// PrintProgress returns a progress callback that renders each event as
// one line on w — conventionally os.Stderr, so stdout stays
// machine-parseable. Lines look like
//
//	[  12.3s]  37/100 aesEncrypt128/PRO (12 cached, eta 41.0s)
func PrintProgress(w io.Writer) func(Event) {
	return func(ev Event) {
		tags := ""
		if ev.FromCache {
			tags = " [cached]"
		}
		extra := ""
		if ev.CacheHits > 0 {
			extra = fmt.Sprintf("%d cached", ev.CacheHits)
		}
		if ev.ETA > 0 {
			if extra != "" {
				extra += ", "
			}
			extra += fmt.Sprintf("eta %.1fs", ev.ETA.Seconds())
		}
		if extra != "" {
			extra = " (" + extra + ")"
		}
		fmt.Fprintf(w, "[%7.1fs] %3d/%d %s/%s%s%s\n",
			ev.Elapsed.Seconds(), ev.Done, ev.Total, ev.Kernel, ev.Scheduler, tags, extra)
	}
}

// Grid builds the standard evaluation batch: every workload under every
// named scheduler, scheduler-major within each workload (the same order
// the serial harness used). maxTBs > 0 shrinks each grid first.
func Grid(ws []*workloads.Workload, scheds []string, maxTBs int, opts gpu.Options) []Job {
	js := make([]Job, 0, len(ws)*len(scheds))
	for _, w := range ws {
		run := w
		if maxTBs > 0 {
			run = w.Shrunk(maxTBs)
		}
		for _, sched := range scheds {
			js = append(js, Job{
				Launch:    run.Launch,
				Kernel:    run.Kernel,
				Scheduler: sched,
				Options:   opts,
				Cost:      int64(run.Launch.GridTBs) * int64(run.Launch.BlockThreads),
			})
		}
	}
	return js
}
