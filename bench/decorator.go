package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/schedreg"
	"repro/internal/stats"
)

// orderTimer is the timing decorator around a scheduling policy: it
// forwards every hook untouched (the embedded interface) and times each
// Order call. One instance serves one SM, and an SM is ticked by one
// goroutine at a time, so the counters need no lock; the collector reads
// them after the run has returned.
type orderTimer struct {
	engine.Scheduler
	calls int64
	busy  time.Duration
}

func (t *orderTimer) Order(slot int, dst []*engine.Warp, cycle int64) []*engine.Warp {
	start := time.Now()
	dst = t.Scheduler.Order(slot, dst, cycle)
	t.busy += time.Since(start)
	t.calls++
	return dst
}

// OrderSamples keeps gpu.OrderTracer visible through the decorator; a
// policy that records no samples yields nil, which is what the run
// reports without the interface.
func (t *orderTimer) OrderSamples() []stats.OrderSample {
	if tr, ok := t.Scheduler.(gpu.OrderTracer); ok {
		return tr.OrderSamples()
	}
	return nil
}

// The engine discovers OrderCacher and TimedScheduler by type assertion
// and changes its behaviour on them (order caching, cycle skipping, timed
// wake-ups), so the decorator must expose exactly the optional
// interfaces its inner policy has — hence one wrapper type per
// combination.
type (
	cachedTimer struct {
		*orderTimer
		engine.OrderCacher
	}
	timedTimer struct {
		*orderTimer
		engine.TimedScheduler
	}
	cachedTimedTimer struct {
		*orderTimer
		engine.OrderCacher
		engine.TimedScheduler
	}
)

// decorate wraps inner in the timing decorator, preserving its optional
// interfaces.
func decorate(inner engine.Scheduler) (engine.Scheduler, *orderTimer) {
	t := &orderTimer{Scheduler: inner}
	oc, cacher := inner.(engine.OrderCacher)
	ts, timed := inner.(engine.TimedScheduler)
	switch {
	case cacher && timed:
		return cachedTimedTimer{t, oc, ts}, t
	case cacher:
		return cachedTimer{t, oc}, t
	case timed:
		return timedTimer{t, ts}, t
	default:
		return t, t
	}
}

// jobTrace is what the harness learns about one job of a traced pass
// without looking inside the engine: when its first SM was built, when
// its completion was reported, and how long its policy spent ordering.
// One goroutine runs a job from its first factory call to its completion
// event, and the harness reads the trace after the batch has returned, so
// no lock is needed.
type jobTrace struct {
	label     string
	scheduler string
	start     time.Time
	end       time.Time
	timers    []*orderTimer
}

func (jt *jobTrace) window() time.Duration {
	if jt.start.IsZero() || jt.end.IsZero() {
		return 0
	}
	return jt.end.Sub(jt.start)
}

func (jt *jobTrace) order() (calls int64, busy time.Duration) {
	for _, t := range jt.timers {
		calls += t.calls
		busy += t.busy
	}
	return calls, busy
}

// collector gathers the jobTraces and heartbeats of one traced pass.
type collector struct {
	jobs map[string]*jobTrace // by "kernel/scheduler"

	hbMu sync.Mutex
	hb   heartbeatSum
}

// heartbeatSum adds up the deltas gpu.Heartbeat delivers.
type heartbeatSum struct {
	iters, ffJumps        int64
	parTicks, serialTicks int64
	tickNS, commitNS      int64
	laneOps, laneDrains   int64
	smWorkers             int
}

func (c *collector) onHeartbeat(h gpu.Heartbeat) {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	c.hb.iters += h.Iters
	c.hb.ffJumps += h.FFJumps
	c.hb.parTicks += h.ParTicks
	c.hb.serialTicks += h.SerialTicks
	c.hb.tickNS += h.TickNS
	c.hb.commitNS += h.CommitNS
	c.hb.laneOps += h.LaneOps
	c.hb.laneDrains += h.LaneDrains
	if h.SMWorkers > c.hb.smWorkers {
		c.hb.smWorkers = h.SMWorkers
	}
}

// onProgress closes the window of the job an engine just reported.
func (c *collector) onProgress(ev jobs.Event) {
	if jt := c.jobs[ev.Kernel+"/"+schedulerOfKey(ev.Scheduler)]; jt != nil {
		jt.end = time.Now()
	}
}

// timedKeyPrefix marks the FactoryKey of a decorated job; the scheduler
// name follows it.
const timedKeyPrefix = "bench-timed:"

func schedulerOfKey(label string) string {
	return strings.TrimPrefix(label, timedKeyPrefix)
}

// decorateJobs returns copies of js whose policies run inside the timing
// decorator, submitted the way any custom policy is: Job.Factory plus a
// FactoryKey naming it. The jobs must use registered scheduler names.
func decorateJobs(js []jobs.Job) ([]jobs.Job, *collector, error) {
	col := &collector{jobs: make(map[string]*jobTrace, len(js))}
	out := make([]jobs.Job, len(js))
	for i, j := range js {
		inner, err := schedreg.New(j.Scheduler)
		if err != nil {
			return nil, nil, err
		}
		jt := &jobTrace{label: j.Label() + "/" + j.Scheduler, scheduler: j.Scheduler}
		col.jobs[jt.label] = jt
		j.Factory = func(sm *engine.SM) engine.Scheduler {
			if jt.start.IsZero() {
				jt.start = time.Now()
			}
			s, t := decorate(inner(sm))
			jt.timers = append(jt.timers, t)
			return s
		}
		j.FactoryKey = timedKeyPrefix + j.Scheduler
		out[i] = j
	}
	return out, col, nil
}
