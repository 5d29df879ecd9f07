package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
)

// Requeue is the error a Dispatch lane returns for a job it did not run:
// the job goes back to the queue front instead of failing the batch.
// Pause holds this lane back before its next job, ending early when the
// batch resolves or its context ends; Stop ends the lane. Err is why.
type Requeue struct {
	Pause time.Duration
	Stop  bool
	Err   error
}

func (r *Requeue) Error() string { return fmt.Sprintf("requeued: %v", r.Err) }

// Dispatch runs the jobs of js at the positions order lists on lanes,
// one goroutine each, from one queue seeded in that order: whichever
// lane is free pops the front, the way the simulator's thread block
// scheduler hands the next TB to whichever SM frees a slot. A lane
// returns job i's result and whether a cache replayed it, a *Requeue,
// or any other error, which fails the batch and cancels the lanes'
// context. A position whose results entry is set on entry is a cache
// hit and is never queued. Results land at their job's position, and
// onProgress, when non-nil, receives one serialized Event per job.
func Dispatch(ctx context.Context, js []Job, order []int, results []*stats.KernelResult,
	lanes []func(context.Context, int) (*stats.KernelResult, bool, error), onProgress func(Event)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	b := &batch{js: js, results: results, onProgress: onProgress, cancel: cancel,
		start: time.Now(), remaining: len(order), live: len(lanes)}
	b.cond = sync.NewCond(&b.mu)
	for _, i := range order {
		if results[i] != nil {
			b.finish(i, results[i], true)
		} else {
			b.queue = append(b.queue, i)
		}
	}
	switch {
	case b.remaining == 0:
		return nil
	case len(lanes) == 0:
		return fmt.Errorf("jobs: no lane to run %d of %d jobs", b.remaining, len(js))
	}
	// Every outcome cancels ctx; wake the lanes waiting on an empty queue.
	defer context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})()

	var wg sync.WaitGroup
	for _, run := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.lane(ctx, run)
		}()
	}
	wg.Wait()
	if b.err == nil && b.remaining > 0 {
		return fmt.Errorf("jobs: %w", ctx.Err())
	}
	return b.err
}

// batch is the shared state of one Dispatch, guarded by mu.
type batch struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled when the queue refills or ctx ends

	js         []Job
	results    []*stats.KernelResult
	queue      []int // pending job positions, front first
	remaining  int   // jobs without a result
	live       int   // lanes still taking jobs
	err        error // the first failure
	cancel     context.CancelFunc
	onProgress func(Event)
	done, hits int
	start      time.Time
}

// lane pops the queue front and runs it until ctx ends. It waits while
// the queue is empty: a job in flight on another lane may yet come back.
func (b *batch) lane(ctx context.Context, run func(context.Context, int) (*stats.KernelResult, bool, error)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for len(b.queue) == 0 && ctx.Err() == nil {
			b.cond.Wait()
		}
		if ctx.Err() != nil {
			return
		}
		i := b.queue[0]
		b.queue = b.queue[1:]
		b.mu.Unlock()
		r, fromCache, err := run(ctx, i)
		b.mu.Lock()

		var rq *Requeue
		switch {
		case err == nil:
			b.finish(i, r, fromCache)
			continue
		case !errors.As(err, &rq):
			b.fail(fmt.Errorf("jobs: job %d (%s/%s): %w", i, b.js[i].Label(), b.js[i].SchedLabel(), err))
			return
		}
		// It was next in line when its lane gave it up.
		b.queue = append([]int{i}, b.queue...)
		b.cond.Signal()
		if rq.Stop {
			if b.live--; b.live == 0 {
				b.fail(fmt.Errorf("jobs: every lane stopped with %d of %d jobs unfinished: %w",
					b.remaining, len(b.js), rq.Err))
			}
			return
		}
		if rq.Pause > 0 {
			b.mu.Unlock()
			t := time.NewTimer(rq.Pause)
			select {
			case <-t.C:
			case <-ctx.Done():
			}
			t.Stop()
			b.mu.Lock()
		}
	}
}

// fail latches the batch's first failure and cancels its lanes. Callers
// hold mu.
func (b *batch) fail(err error) {
	if b.err == nil {
		b.err = err
	}
	b.cancel()
}

// finish stores job i's result, emits its progress event and, after the
// last job, resolves the batch. Callers hold mu, or run before the lanes
// start.
func (b *batch) finish(i int, r *stats.KernelResult, fromCache bool) {
	b.results[i] = r
	b.done++
	if fromCache {
		b.hits++
	}
	if b.remaining--; b.remaining == 0 {
		b.cancel()
	}
	if b.onProgress != nil {
		elapsed := time.Since(b.start)
		b.onProgress(Event{
			Kernel:    b.js[i].Label(),
			Scheduler: b.js[i].SchedLabel(),
			Done:      b.done,
			Total:     len(b.js),
			FromCache: fromCache,
			CacheHits: b.hits,
			Elapsed:   elapsed,
			ETA:       ETA(elapsed, b.done, b.hits, len(b.js)),
		})
	}
}

// ETA estimates the remaining wall time of a batch after done of total
// jobs finished in elapsed, hits of them at no cost (cache replays, and
// the daemon's dedup attaches). The pace comes from the costly jobs
// alone, since a warm batch's overall mean would read near zero while
// cold simulations remain; the remaining jobs are assumed cold.
func ETA(elapsed time.Duration, done, hits, total int) time.Duration {
	if done == 0 || done >= total {
		return 0
	}
	pace := done
	if sim := done - hits; sim > 0 {
		pace = sim
	}
	return elapsed / time.Duration(pace) * time.Duration(total-done)
}
