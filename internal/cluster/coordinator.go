// The coordinator: active fan-out of one batch across N prosimd
// replicas. Pending jobs wait on one shared FIFO queue in batch order,
// and one lane goroutine per worker slot pops the next job and submits
// it as a single-job daemon batch — the way the simulator's own thread
// block scheduler hands the next TB to whichever SM frees a slot. A
// refused batch (overload) goes back to the queue front while only the
// refusing lane pauses; a transport failure marks the worker down and
// puts the job back at once. Job-level errors (the simulation itself
// failed) are never retried — replaying a deterministic failure
// elsewhere produces the same failure.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/stats"
)

const (
	// maxAttempts bounds the dispatches of one job that end in a
	// transport failure; the last one fails the batch. Overload refusals
	// do not count: the worker is alive and the job never ran.
	maxAttempts = 3
	// healthFailLimit consecutive failed health probes mark a worker
	// down.
	healthFailLimit = 2
)

// healthInterval is the per-worker health-check cadence New gives its
// health loops; a value <= 0 starts none, so losses are then detected
// only through failed dispatches. Tests set it; nothing else does.
var healthInterval = 2 * time.Second

// Config describes a Coordinator.
type Config struct {
	// Workers are the prosimd addresses (daemon.NewClient syntax:
	// host:port, unix:/path, or an http:// base). Required.
	Workers []string
	// CacheDir, when non-empty, is the result cache shared with the
	// workers: Run merges already-cached jobs from it without any
	// dispatch (free resume) and re-reads dispatched results from it at
	// assembly, so the final batch is built purely from the cache.
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
	// down is sticky within a Run (a lost worker's lanes end) but the
	// health loop revives a worker that answers again, so later Runs
	// use it.
	down       atomic.Bool
	dispatched atomic.Int64
	mJobs      *obs.Counter
}

// Coordinator fans batches out to a fixed set of prosimd workers. It
// implements jobs.Runner, so every harness that takes a local engine or
// a daemon client — experiments.RunSuite, prosim report and sweep — can
// transparently run on a cluster. Create with New, release the health
// loops with Close.
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

	stop     chan struct{}
	stopOnce sync.Once
	healthWG sync.WaitGroup
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

// New builds a coordinator and probes every worker once for its slot
// count: unreachable workers are marked down (with a warning) rather
// than failing the whole cluster — the health loop revives them if they
// come back. An empty worker list is an error.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	log := cfg.Log
	if log == nil {
		log = obs.Discard()
	}
	c := &Coordinator{log: log, stop: make(chan struct{})}
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
	if every := healthInterval; every > 0 {
		for _, w := range c.workers {
			c.healthWG.Add(1)
			go c.healthLoop(w, every)
		}
	}
	return c, nil
}

// Close stops the background health checks. In-flight Run calls are
// unaffected.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.healthWG.Wait()
}

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

// healthLoop probes one worker every interval until Close. A run of
// healthFailLimit consecutive failures (or a draining report) marks the
// worker down; a healthy answer from a down worker revives it for
// subsequent Runs.
func (c *Coordinator) healthLoop(w *worker, every time.Duration) {
	defer c.healthWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	fails := 0
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), every)
		h, err := w.client.Health(ctx)
		cancel()
		switch {
		case err != nil:
			fails++
			if fails >= healthFailLimit {
				c.markLost(w, fmt.Errorf("%d consecutive failed health checks: %w", fails, err))
			}
		case h.Draining:
			fails = 0
			c.markLost(w, fmt.Errorf("worker is draining"))
		default:
			fails = 0
			if w.down.Swap(false) {
				c.log.Info("worker recovered", "worker", w.addr)
			}
		}
	}
}

// runState is the shared mutable state of one Run: the pending-job
// queue, completion bookkeeping and the failure latch, all guarded by
// mu. cond wakes lanes when the queue refills or the batch resolves;
// resolved is closed at the same moment, so a lane paused on an
// overload hint stops waiting too.
type runState struct {
	mu   sync.Mutex
	cond *sync.Cond

	queue     []int // pending job indices, front first
	lostTries []int // per job, dispatches that ended in a transport failure
	remaining int   // jobs without a final outcome
	failed    error
	resolved  chan struct{}

	// Progress bookkeeping (jobs.Event shape).
	done  int
	hits  int
	start time.Time
}

// resolveLocked closes resolved and wakes every lane once the batch has
// an outcome. Callers hold mu.
func (st *runState) resolveLocked() {
	if st.remaining == 0 || st.failed != nil {
		select {
		case <-st.resolved:
		default:
			close(st.resolved)
		}
	}
	st.cond.Broadcast()
}

// fail latches the first batch failure and wakes every lane.
func (st *runState) fail(err error) {
	st.mu.Lock()
	if st.failed == nil {
		st.failed = err
	}
	st.resolveLocked()
	st.mu.Unlock()
}

// pushFront puts job i back at the head of the queue: it was already
// next in line when its dispatch failed.
func (st *runState) pushFront(i int) {
	st.mu.Lock()
	st.queue = append([]int{i}, st.queue...)
	st.cond.Broadcast()
	st.mu.Unlock()
}

// next hands a lane of worker w the job at the queue front, waiting
// while the queue is empty (a job in flight on another lane may yet come
// back). It returns false once the batch is resolved or w is down.
func (st *runState) next(w *worker) (int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.failed != nil || st.remaining == 0 || w.down.Load() {
			return 0, false
		}
		if len(st.queue) > 0 {
			i := st.queue[0]
			st.queue = st.queue[1:]
			return i, true
		}
		st.cond.Wait()
	}
}

// Run implements jobs.Runner: merge what the shared cache already has,
// fan the rest out across the live workers' slots from one queue, and
// return one result per job in job order. Like the local engine, the
// first definitive job failure fails the batch.
func (c *Coordinator) Run(ctx context.Context, js []jobs.Job) ([]*stats.KernelResult, error) {
	if len(js) == 0 {
		return nil, nil
	}
	keys, err := batchKeys(js)
	if err != nil {
		return nil, err
	}

	st := &runState{
		lostTries: make([]int, len(js)),
		resolved:  make(chan struct{}),
		start:     time.Now(),
	}
	st.cond = sync.NewCond(&st.mu)
	results := make([]*stats.KernelResult, len(js))

	// Merge pass: anything the shared cache already holds is final —
	// an interrupted sweep resumes here with zero dispatches.
	for i := range js {
		if c.cache != nil {
			if r, ok := c.cache.Get(keys[i]); ok {
				results[i] = r
				c.mergeHits.Add(1)
				mMergeHits.Inc()
				c.progress(st, &js[i], true, len(js))
				continue
			}
		}
		st.queue = append(st.queue, i)
	}
	pending := append([]int(nil), st.queue...)
	if len(pending) == 0 {
		return results, nil
	}
	st.remaining = len(pending)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, w := range c.workers {
		if w.down.Load() {
			continue
		}
		for s := 0; s < w.slots; s++ {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				c.lane(runCtx, st, w, js, keys, results)
			}(w)
		}
	}
	// A context cancel must wake lanes blocked on the cond var.
	ctxDone := make(chan struct{})
	go func() {
		select {
		case <-runCtx.Done():
			st.fail(fmt.Errorf("cluster: %w", context.Cause(runCtx)))
		case <-ctxDone:
		}
	}()
	wg.Wait()
	close(ctxDone)

	st.mu.Lock()
	err = st.failed
	remaining := st.remaining
	st.mu.Unlock()
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("cluster: %w", ctx.Err())
	}
	if err == nil && remaining > 0 {
		err = fmt.Errorf("cluster: no live workers left with %d jobs unfinished (of %d configured workers)",
			remaining, len(c.workers))
	}
	if err != nil {
		return nil, err
	}
	// Final assembly: prefer the cache's copy of every dispatched
	// result, so the returned batch is exactly what a later merge-only
	// run would read. Wire results fill in only when the workers do not
	// share this coordinator's cache directory.
	if c.cache != nil {
		for _, i := range pending {
			if r, ok := c.cache.Get(keys[i]); ok {
				results[i] = r
			}
		}
	}
	return results, nil
}

// progress emits one jobs.Event for a finished job under st.mu-free
// accounting (it takes the lock itself).
func (c *Coordinator) progress(st *runState, j *jobs.Job, fromCache bool, total int) {
	st.mu.Lock()
	st.done++
	if fromCache {
		st.hits++
	}
	ev := jobs.Event{
		Kernel:    j.Label(),
		Scheduler: j.SchedLabel(),
		Done:      st.done,
		Total:     total,
		FromCache: fromCache,
		CacheHits: st.hits,
		Elapsed:   time.Since(st.start),
	}
	cb := c.OnProgress
	if cb != nil {
		cb(ev)
	}
	st.mu.Unlock()
}

// lane is one worker slot's dispatch loop.
func (c *Coordinator) lane(ctx context.Context, st *runState, w *worker, js []jobs.Job, keys []string, results []*stats.KernelResult) {
	for {
		i, ok := st.next(w)
		if !ok {
			return
		}
		w.dispatched.Add(1)
		w.mJobs.Inc()
		mDispatched.Inc()
		rs, err := w.client.Run(ctx, js[i:i+1])

		if err == nil {
			st.mu.Lock()
			results[i] = rs[0]
			st.remaining--
			st.resolveLocked()
			st.mu.Unlock()
			c.progress(st, &js[i], false, len(js))
			continue
		}
		if ctx.Err() != nil {
			// The batch context ended; the watchdog goroutine latches the
			// failure. Nothing to retry.
			return
		}
		var oe *daemon.OverloadedError
		if errors.As(err, &oe) {
			// The worker refused the batch at admission (429 full queue
			// or 503 draining): it is alive and shedding load, not lost.
			// The job goes back to the queue front for any lane, and only
			// this lane waits out the Retry-After hint.
			c.retry(i, keys[i], w, err)
			st.pushFront(i)
			t := time.NewTimer(oe.RetryAfter)
			select {
			case <-t.C:
			case <-st.resolved:
			case <-ctx.Done():
			}
			t.Stop()
			continue
		}
		var te *daemon.TransportError
		if !errors.As(err, &te) {
			// The job ran and failed — deterministic, so retrying it on
			// another replica reproduces the failure. Fail the batch like
			// the local engine does.
			st.fail(fmt.Errorf("cluster: job %d (%s/%s): %w", i, js[i].Label(), js[i].SchedLabel(), err))
			return
		}
		// Transport-level loss (connect refused, mid-stream disconnect):
		// the worker is down, its lanes end, and the job goes back to the
		// queue front for the survivors — unless this was its last
		// attempt.
		c.markLost(w, err)
		st.mu.Lock()
		st.lostTries[i]++
		tries := st.lostTries[i]
		st.mu.Unlock()
		if tries >= maxAttempts {
			st.fail(fmt.Errorf("cluster: job %d gave out after %d attempts: %w", i, tries, err))
			return
		}
		c.retry(i, keys[i], w, err)
		st.pushFront(i)
		return
	}
}

// retry counts and logs one job's return to the queue after its
// dispatch to w failed.
func (c *Coordinator) retry(i int, key string, w *worker, cause error) {
	c.retries.Add(1)
	mRetries.Inc()
	c.log.Warn("requeueing job", "job", i, "key", shortKey(key), "failed_worker", w.addr, "err", cause)
}
