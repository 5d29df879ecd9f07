// The coordinator: active fan-out of one batch across N prosimd
// replicas. One lane goroutine per worker slot pulls job indices off
// per-worker queues (seeded by the shard math for placement stability,
// drained by work-stealing for balance), submits them as single-job
// daemon batches, and on a transport failure marks the worker down and
// reschedules the lost job on a surviving replica after a capped
// exponential backoff. Job-level errors (the simulation itself failed)
// are never retried — replaying a deterministic failure elsewhere
// produces the same failure.
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

// Config tunes a Coordinator.
type Config struct {
	// Workers are the prosimd addresses (daemon.NewClient syntax:
	// host:port, unix:/path, or an http:// base). Required.
	Workers []string
	// SlotsPerWorker is the number of concurrent jobs sent to each
	// worker; <= 0 asks each worker for its own slot count via
	// /v1/health (falling back to 1 for unreachable workers).
	SlotsPerWorker int
	// CacheDir, when non-empty, is the result cache shared with the
	// workers: Run merges already-cached jobs from it without any
	// dispatch (free resume) and re-reads dispatched results from it at
	// assembly, so the final batch is built purely from the cache.
	CacheDir string
	// JobTimeout caps one dispatch attempt; an over-budget attempt is
	// retried on another worker. 0 means no cap.
	JobTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per job (first try included);
	// <= 0 means 3.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry, doubling per
	// attempt up to MaxBackoff; defaults 100ms and 5s.
	BaseBackoff, MaxBackoff time.Duration
	// HealthInterval is the per-worker health-check cadence; 0 means 2s,
	// < 0 disables the background checks (losses are then detected only
	// through failed dispatches).
	HealthInterval time.Duration
	// HealthFailLimit is how many consecutive failed health probes mark
	// a worker down; <= 0 means 2.
	HealthFailLimit int
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
	id     int
	addr   string
	client *daemon.Client
	slots  int
	// down is sticky within a Run (a lost worker gets no further jobs)
	// but the health loop revives a worker that answers again, so later
	// Runs use it.
	down       atomic.Bool
	dispatched atomic.Int64
	stolen     atomic.Int64
	mJobs      *obs.Counter
	mQueue     *obs.Gauge
}

// Coordinator fans batches out to a fixed set of prosimd workers. It
// implements jobs.Runner, so every harness that takes a local engine or
// a daemon client — experiments.RunSuite, cmd/report, cmd/sweep — can
// transparently run on a cluster. Create with New, release the health
// loops with Close.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	cache   *resultcache.Cache
	workers []*worker

	// OnProgress, when non-nil, receives one jobs.Event per completed
	// job of a Run batch (merge hits included, FromCache=true), the same
	// callback shape the local engine uses. Calls are serialized.
	OnProgress func(jobs.Event)

	retries   atomic.Int64
	steals    atomic.Int64
	lost      atomic.Int64
	mergeHits atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	healthWG sync.WaitGroup
}

// Stats is a snapshot of a coordinator's lifetime counters.
type Stats struct {
	Retries     int64
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
	Stolen     int64
}

// New builds a coordinator and probes every worker once: unreachable
// workers are marked down (with a warning) rather than failing the
// whole cluster — the health loop revives them if they come back. An
// empty worker list is an error.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.HealthFailLimit <= 0 {
		cfg.HealthFailLimit = 2
	}
	log := cfg.Log
	if log == nil {
		log = obs.Discard()
	}
	c := &Coordinator{cfg: cfg, log: log, stop: make(chan struct{})}
	if cfg.CacheDir != "" {
		cache, err := resultcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		c.cache = cache
	}
	for id, addr := range cfg.Workers {
		client := daemon.NewClient(addr)
		client.Priority = cfg.Priority
		w := &worker{
			id:     id,
			addr:   addr,
			client: client,
			slots:  cfg.SlotsPerWorker,
			mJobs:  obs.NewCounter(obs.Labeled("cluster_worker_jobs_total", "worker", addr), "job attempts dispatched to this worker"),
			mQueue: obs.NewGauge(obs.Labeled("cluster_worker_queue_depth", "worker", addr), "jobs queued for this worker"),
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		h, err := w.client.Health(ctx)
		cancel()
		switch {
		case err != nil:
			c.markLost(w, fmt.Errorf("initial probe: %w", err))
		case h.Draining:
			c.markLost(w, fmt.Errorf("initial probe: worker is draining"))
		default:
			if w.slots <= 0 {
				w.slots = h.Workers
			}
		}
		if w.slots <= 0 {
			w.slots = 1
		}
		c.workers = append(c.workers, w)
	}
	if cfg.HealthInterval > 0 {
		for _, w := range c.workers {
			c.healthWG.Add(1)
			go c.healthLoop(w)
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
		Steals:      c.steals.Load(),
		WorkersLost: c.lost.Load(),
		MergeHits:   c.mergeHits.Load(),
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStats{
			Addr:       w.addr,
			Down:       w.down.Load(),
			Slots:      w.slots,
			Dispatched: w.dispatched.Load(),
			Stolen:     w.stolen.Load(),
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

// healthLoop probes one worker until Close. A run of HealthFailLimit
// consecutive failures (or a draining report) marks the worker down; a
// healthy answer from a down worker revives it for subsequent Runs.
func (c *Coordinator) healthLoop(w *worker) {
	defer c.healthWG.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	fails := 0
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthInterval)
		h, err := w.client.Health(ctx)
		cancel()
		switch {
		case err != nil:
			fails++
			if fails >= c.cfg.HealthFailLimit {
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

// runState is the shared mutable state of one Run: per-worker queues,
// completion bookkeeping, and the failure latch. All fields are guarded
// by mu; cond wakes lanes when a queue refills (retry landing) or the
// batch resolves.
type runState struct {
	mu   sync.Mutex
	cond *sync.Cond

	queues    [][]int // per worker id, queued job indices
	active    []bool  // per worker id: lanes running this Run
	attempts  []int   // per job, dispatch attempts so far
	remaining int     // jobs without a final outcome
	failed    error

	// Progress bookkeeping (jobs.Event shape).
	done  int
	hits  int
	start time.Time
}

// fail latches the first batch failure and wakes every lane.
func (st *runState) fail(err error) {
	st.mu.Lock()
	if st.failed == nil {
		st.failed = err
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// Run implements jobs.Runner: merge what the shared cache already has,
// fan the rest out across the live workers with work-stealing and
// retries, and return one result per job in job order. Like the local
// engine, the first definitive job failure fails the batch.
func (c *Coordinator) Run(ctx context.Context, js []jobs.Job) ([]*stats.KernelResult, error) {
	if len(js) == 0 {
		return nil, nil
	}
	keys, err := batchKeys(js)
	if err != nil {
		return nil, err
	}

	st := &runState{
		queues:   make([][]int, len(c.workers)),
		active:   make([]bool, len(c.workers)),
		attempts: make([]int, len(js)),
		start:    time.Now(),
	}
	st.cond = sync.NewCond(&st.mu)
	results := make([]*stats.KernelResult, len(js))

	// Merge pass: anything the shared cache already holds is final —
	// an interrupted sweep resumes here with zero dispatches.
	pending := make([]int, 0, len(js))
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
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return results, nil
	}

	// Seed per-worker queues with the same shard math standalone
	// `-shard i/n` runs use, over the live workers only: placement is
	// deterministic for a fixed live set, and stealing rebalances
	// whatever the static split gets wrong.
	live := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.down.Load() {
			live = append(live, w)
			st.active[w.id] = true
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("cluster: no live workers (of %d configured)", len(c.workers))
	}
	for _, i := range pending {
		w := live[shardOf(keys[i], len(live))]
		st.queues[w.id] = append(st.queues[w.id], i)
	}
	st.remaining = len(pending)
	for _, w := range live {
		w.mQueue.Set(int64(len(st.queues[w.id])))
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, w := range live {
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
		err = fmt.Errorf("cluster: all workers lost with %d jobs unfinished", remaining)
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

// next hands the lane of worker w its next job index. It prefers w's
// own queue (front — shard order), then steals from the back of the
// longest other queue (down workers' stranded queues included), and
// otherwise waits: jobs in backoff or in flight on other lanes may yet
// be requeued here. Returns false when the batch is resolved, the lane's
// worker is lost, or the run failed.
func (c *Coordinator) next(st *runState, w *worker) (int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.failed != nil || st.remaining == 0 || !st.active[w.id] {
			return 0, false
		}
		if q := st.queues[w.id]; len(q) > 0 {
			i := q[0]
			st.queues[w.id] = q[1:]
			w.mQueue.Set(int64(len(st.queues[w.id])))
			return i, true
		}
		// Steal from the longest queue anywhere else. Queues of down
		// workers have no lanes left, so stealing is also how their
		// stranded work drains.
		victim := -1
		for id := range st.queues {
			if id != w.id && len(st.queues[id]) > 0 &&
				(victim < 0 || len(st.queues[id]) > len(st.queues[victim])) {
				victim = id
			}
		}
		if victim >= 0 {
			q := st.queues[victim]
			i := q[len(q)-1]
			st.queues[victim] = q[:len(q)-1]
			c.workers[victim].mQueue.Set(int64(len(st.queues[victim])))
			w.stolen.Add(1)
			c.steals.Add(1)
			mSteals.Inc()
			return i, true
		}
		st.cond.Wait()
	}
}

// lane is one worker slot's dispatch loop.
func (c *Coordinator) lane(ctx context.Context, st *runState, w *worker, js []jobs.Job, keys []string, results []*stats.KernelResult) {
	for {
		i, ok := c.next(st, w)
		if !ok {
			return
		}
		w.dispatched.Add(1)
		w.mJobs.Inc()
		mDispatched.Inc()
		st.mu.Lock()
		st.attempts[i]++
		attempt := st.attempts[i]
		st.mu.Unlock()

		attemptCtx := ctx
		var cancel context.CancelFunc
		if c.cfg.JobTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, c.cfg.JobTimeout)
		}
		rs, err := w.client.Run(attemptCtx, js[i:i+1])
		if cancel != nil {
			cancel()
		}

		if err == nil {
			st.mu.Lock()
			results[i] = rs[0]
			st.remaining--
			if st.remaining == 0 {
				st.cond.Broadcast()
			}
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
			// Retry after at least its Retry-After hint, on another
			// replica when one exists, and keep this lane running.
			c.requeue(ctx, st, i, keys[i], attempt, w, oe.RetryAfter, err)
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
		// Transport-level loss. A per-attempt deadline means the worker
		// is slow, not gone; anything else (connect refused, mid-stream
		// disconnect) marks it down and ends this lane.
		timeout := errors.Is(err, context.DeadlineExceeded)
		if !timeout {
			c.markLost(w, err)
			st.mu.Lock()
			st.active[w.id] = false
			st.cond.Broadcast()
			st.mu.Unlock()
		}
		c.requeue(ctx, st, i, keys[i], attempt, w, 0, err)
		if !timeout {
			return
		}
	}
}

// requeue schedules a failed attempt's retry: after a capped
// exponential backoff (but at least minDelay — an overloaded worker's
// Retry-After hint) the job lands on the live worker with the shortest
// queue (never the one that just failed it, when another exists).
// Exhausted attempts fail the batch.
func (c *Coordinator) requeue(ctx context.Context, st *runState, i int, key string, attempt int, failed *worker, minDelay time.Duration, cause error) {
	if attempt >= c.cfg.MaxAttempts {
		st.fail(fmt.Errorf("cluster: job %d gave out after %d attempts: %w", i, attempt, cause))
		return
	}
	delay := c.cfg.BaseBackoff << (attempt - 1)
	if delay > c.cfg.MaxBackoff || delay <= 0 {
		delay = c.cfg.MaxBackoff
	}
	if delay < minDelay {
		delay = minDelay
	}
	c.retries.Add(1)
	mRetries.Inc()
	c.log.Warn("retrying job on a surviving replica",
		"job", i, "key", shortKey(key), "failed_worker", failed.addr,
		"attempt", attempt, "backoff", delay.String(), "err", cause)
	go func() {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			// The watchdog latches the context failure; just stop.
			return
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.failed != nil {
			return
		}
		target := -1
		for id, ok := range st.active {
			if !ok || c.workers[id] == failed {
				continue
			}
			if target < 0 || len(st.queues[id]) < len(st.queues[target]) {
				target = id
			}
		}
		if target < 0 && st.active[failed.id] {
			target = failed.id // timeout case: the slow worker is all we have
		}
		if target < 0 {
			st.failed = fmt.Errorf("cluster: no live workers left to retry job %d: %w", i, cause)
			st.cond.Broadcast()
			return
		}
		st.queues[target] = append(st.queues[target], i)
		c.workers[target].mQueue.Set(int64(len(st.queues[target])))
		st.cond.Broadcast()
	}()
}
