// Package prosim is the public facade of the PRO warp-scheduling
// reproduction: one import gives access to the GPU configuration, the
// scheduler registry (LRR, GTO, TL, PRO and PRO ablations), the Table II
// workload suite and the simulation entry points.
//
// Quickstart:
//
//	w, _ := prosim.WorkloadByKernel("scalarProdGPU")
//	base, _ := prosim.RunWorkload(w, "LRR", prosim.Options{})
//	pro, _ := prosim.RunWorkload(w, "PRO", prosim.Options{})
//	fmt.Printf("PRO speedup over LRR: %.2fx\n", pro.Speedup(base))
package prosim

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/resultcache"
	"repro/internal/schedreg"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Re-exported types so callers need only this package.
type (
	// Config is the simulated GPU hardware description (Table I).
	Config = config.Config
	// Launch describes one kernel launch.
	Launch = engine.Launch
	// Result is everything one simulated launch produces.
	Result = stats.KernelResult
	// Options tune one simulation run.
	Options = gpu.Options
	// Workload is one Table II benchmark kernel.
	Workload = workloads.Workload
	// Factory builds a scheduling policy for an SM.
	Factory = engine.Factory
	// Job is one simulation in a parallel batch (see JobRunner).
	Job = jobs.Job
	// JobEngine fans jobs across a worker pool with an optional result
	// cache (see OpenResultCache). The zero value runs one worker per
	// CPU core, uncached.
	JobEngine = jobs.Engine
	// JobEvent reports one job completion to a progress callback.
	JobEvent = jobs.Event
	// ResultCache memoizes simulation results on disk.
	ResultCache = resultcache.Cache
	// JobRunner executes job batches: a local JobEngine or a
	// DaemonClient. Run returns one result per job, in job order
	// regardless of completion order; the simulator is deterministic, so
	// the results equal a serial run's.
	JobRunner = jobs.Runner
	// DaemonClient submits batches to a running prosimd daemon.
	DaemonClient = daemon.Client
	// DaemonStats is the daemon's counter snapshot (GET /v1/stats).
	DaemonStats = daemon.Stats
)

// GTX480 returns the paper's Table I configuration.
func GTX480() *Config { return config.GTX480() }

// SchedulerNames lists the registered policies in the paper's comparison
// order.
func SchedulerNames() []string { return schedreg.Names() }

// Schedulers returns the factory for a named policy. Recognized names:
// LRR, GTO, TL, PRO, PRO-nobar (the barrier-handling ablation of
// Sec. IV), PRO-adaptive (the paper's future-work online profiler that
// toggles barrier handling per SM), PRO-norm (the Sec. III-A
// normalized-progress variant) and the related-work baselines CAWS-lite
// and OWL-lite.
func Schedulers(name string) (Factory, error) { return schedreg.New(name) }

// PRO returns a PRO factory with explicit options (threshold, ablations,
// order tracing).
func PRO(opts ...core.Option) Factory { return core.New(opts...) }

// Run simulates launch on cfg under the named scheduler.
func Run(cfg *Config, launch *Launch, scheduler string, opts Options) (*Result, error) {
	f, err := Schedulers(scheduler)
	if err != nil {
		return nil, err
	}
	return gpu.Run(cfg, launch, f, opts)
}

// RunFactory simulates launch under an explicit policy factory.
func RunFactory(cfg *Config, launch *Launch, f Factory, opts Options) (*Result, error) {
	return gpu.Run(cfg, launch, f, opts)
}

// RunWorkload simulates a Table II workload on the GTX480 configuration.
func RunWorkload(w *Workload, scheduler string, opts Options) (*Result, error) {
	return Run(GTX480(), w.Launch, scheduler, opts)
}

// AllWorkloads returns the 25 Table II kernels in paper order.
func AllWorkloads() []*Workload { return workloads.All() }

// Apps returns the 15 Table III application names in paper order.
func Apps() []string { return workloads.Apps() }

// WorkloadByKernel looks a workload up by its Table II kernel name.
func WorkloadByKernel(name string) (*Workload, error) { return workloads.ByKernel(name) }

// WorkloadsByApp returns the kernels of one Table III application.
func WorkloadsByApp(app string) []*Workload { return workloads.ByApp(app) }

// HardwareCostBytes reports PRO's extra per-SM storage (Sec. III-E).
func HardwareCostBytes(cfg *Config) int { return core.HardwareCostBytes(cfg) }

// AppResult aggregates an application's kernels (Table III granularity).
type AppResult = stats.AppResult

// RunApp simulates every kernel of a Table III application back to back
// under the named scheduler and returns the aggregate (cycles and stall
// counters summed over kernels, as the paper reports applications).
func RunApp(app, scheduler string, opts Options) (*AppResult, error) {
	ws := WorkloadsByApp(app)
	if len(ws) == 0 {
		return nil, fmt.Errorf("prosim: unknown application %q", app)
	}
	agg := &AppResult{App: app, Scheduler: scheduler}
	for _, w := range ws {
		r, err := RunWorkload(w, scheduler, opts)
		if err != nil {
			return nil, err
		}
		agg.Accumulate(r)
	}
	return agg, nil
}

// ---- Parallel execution & caching ----

// OpenResultCache opens (creating if needed) a result cache directory at
// the current schema version.
func OpenResultCache(dir string) (*ResultCache, error) { return resultcache.Open(dir) }

// ---- Simulation daemon ----

// DialDaemon connects to a prosimd daemon at addr — "host:port" for TCP
// or "unix:/path/to.sock" for a unix socket — verifying it responds
// before returning. The client implements JobRunner, so it drops into
// every API that takes one. Jobs submitted through it execute on the
// daemon (sharing its warm result cache, deduped against identical
// in-flight work from other clients); jobs with an anonymous Factory and
// no resolvable FactoryKey cannot cross the wire and fail per batch.
func DialDaemon(addr string) (*DaemonClient, error) { return daemon.Dial(addr) }

// WorkloadJobs builds the standard evaluation batch — every workload
// under every named scheduler, in suite order — ready for a JobRunner.
// maxTBs > 0 shrinks each grid first.
func WorkloadJobs(ws []*Workload, scheds []string, maxTBs int, opts Options) []Job {
	return jobs.Grid(ws, scheds, maxTBs, opts)
}
