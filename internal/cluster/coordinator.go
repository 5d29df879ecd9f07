package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/stats"
)

// maxAttempts bounds the dispatches of one job that end in a transport
// failure; the last one fails the batch. Overload refusals do not count:
// the worker is alive and the job never ran.
const maxAttempts = 3

// Config describes a Coordinator.
type Config struct {
	// Workers are the prosimd addresses (daemon.NewClient syntax:
	// host:port, unix:/path, or an http:// base). Required.
	Workers []string
	// CacheDir, when non-empty, is the result cache shared with the
	// workers: Run merges already-cached jobs from it without any
	// dispatch (free resume) and re-reads each dispatched result from
	// it, so the final batch is built purely from the cache.
	CacheDir string
	// Priority is the scheduling class every dispatched batch carries
	// (daemon.PriorityInteractive or daemon.PriorityBulk); empty means
	// the daemon default (interactive). Sweeps should run bulk so they
	// yield worker slots to interactive lookups.
	Priority string
	// Log, when non-nil, receives worker-loss and retry events.
	Log *slog.Logger
}

// worker is one prosimd replica.
type worker struct {
	addr   string
	client *daemon.Client
	slots  int
	// down is set once, by New's probe or a failed dispatch, and stays
	// set for the coordinator's lifetime.
	down       atomic.Bool
	dispatched atomic.Int64
	mJobs      *obs.Counter
}

// Coordinator fans batches out to a fixed set of prosimd workers. It
// implements jobs.Runner, so every harness that takes a local engine or
// a daemon client — experiments.RunSuite, prosim report and sweep — can
// transparently run on a cluster. Create with New.
//
// Worker health is read once, by New. During a Run a worker is judged
// by its dispatches alone: a transport failure marks it lost for the
// coordinator's lifetime and requeues the job, and a 429 or 503 pauses
// only that worker's lane for its Retry-After hint. A worker that
// starts draining mid-run therefore keeps pausing its lanes until it
// exits, when its next dispatch fails in transport.
type Coordinator struct {
	log     *slog.Logger
	cache   *resultcache.Cache
	workers []*worker

	// OnProgress, when non-nil, receives one jobs.Event per completed
	// job of a Run batch (merge hits included, FromCache=true), the same
	// callback shape the local engine uses. Calls are serialized.
	OnProgress func(jobs.Event)

	retries   atomic.Int64
	lost      atomic.Int64
	mergeHits atomic.Int64
}

// Stats is a snapshot of a coordinator's lifetime counters.
type Stats struct {
	Retries int64
	// Deprecated: the coordinator has one shared queue and never
	// steals; Steals is always 0.
	Steals      int64
	WorkersLost int64
	MergeHits   int64
	Workers     []WorkerStats
}

// WorkerStats describes one worker's share of the lifetime counters.
type WorkerStats struct {
	Addr       string
	Down       bool
	Slots      int
	Dispatched int64
}

// New builds a coordinator and probes every worker's /v1/health once
// for its slot count: an unreachable or draining worker is marked down
// (with a warning) rather than failing the whole cluster, and stays
// down. An empty worker list is an error.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	log := cfg.Log
	if log == nil {
		log = obs.Discard()
	}
	c := &Coordinator{log: log}
	if cfg.CacheDir != "" {
		cache, err := resultcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		c.cache = cache
	}
	for _, addr := range cfg.Workers {
		client := daemon.NewClient(addr)
		client.Priority = cfg.Priority
		w := &worker{
			addr:   addr,
			client: client,
			slots:  1,
			mJobs:  obs.NewCounter(obs.Labeled("cluster_worker_jobs_total", "worker", addr), "job attempts dispatched to this worker"),
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		h, err := w.client.Health(ctx)
		cancel()
		switch {
		case err != nil:
			c.markLost(w, fmt.Errorf("initial probe: %w", err))
		case h.Draining:
			c.markLost(w, fmt.Errorf("initial probe: worker is draining"))
		case h.Workers > 0:
			w.slots = h.Workers
		}
		c.workers = append(c.workers, w)
	}
	return c, nil
}

// Close does nothing: a coordinator starts no goroutine outside Run.
//
// Deprecated: there is nothing to release. Close survives only because
// the benchmark harness in bench/ calls it.
func (c *Coordinator) Close() {}

// Snapshot returns the coordinator's lifetime counters.
func (c *Coordinator) Snapshot() Stats {
	st := Stats{
		Retries:     c.retries.Load(),
		WorkersLost: c.lost.Load(),
		MergeHits:   c.mergeHits.Load(),
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStats{
			Addr:       w.addr,
			Down:       w.down.Load(),
			Slots:      w.slots,
			Dispatched: w.dispatched.Load(),
		})
	}
	return st
}

// markLost transitions a worker to down once, counting and logging the
// loss.
func (c *Coordinator) markLost(w *worker, cause error) {
	if w.down.Swap(true) {
		return
	}
	c.lost.Add(1)
	mLost.Inc()
	c.log.Warn("worker lost", "worker", w.addr, "err", cause)
}

// Run implements jobs.Runner: merge what the shared cache already has,
// then fan the rest out in batch order across the live workers' slots
// through jobs.Dispatch, and return one result per job in job order.
// Like the local engine, the first definitive job failure fails the
// batch.
func (c *Coordinator) Run(ctx context.Context, js []jobs.Job) ([]*stats.KernelResult, error) {
	if len(js) == 0 {
		return nil, nil
	}
	keys, err := batchKeys(js)
	if err != nil {
		return nil, err
	}

	// Merge pass: anything the shared cache already holds is final —
	// an interrupted sweep resumes here with zero dispatches. Dispatch
	// reports these as cache hits and queues the rest in batch order.
	results := make([]*stats.KernelResult, len(js))
	order := make([]int, len(js))
	for i := range js {
		order[i] = i
		if c.cache == nil {
			continue
		}
		if r, ok := c.cache.Get(keys[i]); ok {
			results[i] = r
			c.mergeHits.Add(1)
			mMergeHits.Inc()
		}
	}

	lostTries := make([]int, len(js)) // per job; Dispatch hands a job to one lane at a time
	var lanes []func(context.Context, int) (*stats.KernelResult, bool, error)
	for _, w := range c.workers {
		if w.down.Load() {
			continue
		}
		for s := 0; s < w.slots; s++ {
			lanes = append(lanes, c.lane(w, js, keys, lostTries))
		}
	}
	if err := jobs.Dispatch(ctx, js, order, results, lanes, c.OnProgress); err != nil {
		return nil, err
	}
	return results, nil
}

// lane returns one slot of worker w as a jobs.Dispatch lane: it submits
// job i as a one-job daemon batch and turns what is remote about a
// failure into a jobs.Requeue.
func (c *Coordinator) lane(w *worker, js []jobs.Job, keys []string, lostTries []int) func(context.Context, int) (*stats.KernelResult, bool, error) {
	return func(ctx context.Context, i int) (*stats.KernelResult, bool, error) {
		if w.down.Load() {
			// Another lane of w lost it: hand the job back undispatched
			// and end this lane.
			return nil, false, &jobs.Requeue{Stop: true, Err: fmt.Errorf("worker %s is down", w.addr)}
		}
		w.dispatched.Add(1)
		w.mJobs.Inc()
		mDispatched.Inc()
		rs, err := w.client.Run(ctx, js[i:i+1])
		if err == nil {
			// Prefer the cache's copy, so the returned batch is exactly
			// what a later merge-only run reads. The wire result stands
			// in only when the worker does not share this cache.
			if c.cache != nil {
				if r, ok := c.cache.Get(keys[i]); ok {
					return r, false, nil
				}
			}
			return rs[0], false, nil
		}
		if ctx.Err() != nil {
			// The batch has an outcome already; nothing to retry.
			return nil, false, err
		}
		var oe *daemon.OverloadedError
		if errors.As(err, &oe) {
			// The worker refused the batch at admission (429 full queue
			// or 503 draining): it is alive and shedding load, not lost.
			// The job goes back to the queue front for any lane without
			// costing an attempt, and only this lane waits out the
			// Retry-After hint.
			c.retry(i, keys[i], w, err)
			return nil, false, &jobs.Requeue{Pause: oe.RetryAfter, Err: err}
		}
		var te *daemon.TransportError
		if !errors.As(err, &te) {
			// The job ran and failed — deterministic, so retrying it on
			// another replica reproduces the failure.
			return nil, false, err
		}
		// Transport-level loss (connect refused, mid-stream disconnect):
		// the worker is down, its lanes end, and the job goes back to the
		// queue front for the survivors — unless this was its last
		// attempt.
		c.markLost(w, err)
		if lostTries[i]++; lostTries[i] >= maxAttempts {
			return nil, false, fmt.Errorf("gave out after %d attempts: %w", lostTries[i], err)
		}
		c.retry(i, keys[i], w, err)
		return nil, false, &jobs.Requeue{Stop: true, Err: err}
	}
}

// retry counts and logs one job's return to the queue after its
// dispatch to w failed.
func (c *Coordinator) retry(i int, key string, w *worker, cause error) {
	c.retries.Add(1)
	mRetries.Inc()
	c.log.Warn("requeueing job", "job", i, "key", shortKey(key), "failed_worker", w.addr, "err", cause)
}
