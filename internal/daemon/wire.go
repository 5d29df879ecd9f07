// Wire protocol of the simulation daemon. Everything crossing the
// socket is JSON: a batch request carries self-contained job specs
// (config, launch — program included — scheduler spec, options), the
// response is an NDJSON stream of per-job progress events terminated by
// one batch line holding the results in job order.
//
// A wire job names its scheduling policy by *spec* rather than by
// factory: either a registered name ("PRO", "GTO") or a parameterized
// PRO-family form ("PRO+threshold=500", "PRO+ordertrace+threshold=
// default") — exactly what a local job may put in Job.Scheduler, or use
// as the FactoryKey of an explicit factory. The daemon hands the spec to
// its engine as Job.Scheduler, which resolves it through
// schedreg.Resolve, so a job serialized by a client keys to the same
// result-cache entry a local run of the same job would.
package daemon

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/schedreg"
	"repro/internal/stats"
)

// WireJob is the JSON form of one simulation job.
type WireJob struct {
	// Config is the simulated GPU; nil means the paper's GTX480.
	Config *config.Config `json:"config,omitempty"`
	// Launch is the kernel launch, program included — wire jobs are
	// self-contained, the daemon holds no workload table.
	Launch *engine.Launch `json:"launch"`
	// Kernel labels the job in progress events.
	Kernel string `json:"kernel,omitempty"`
	// Scheduler is the policy spec (see schedreg.Resolve).
	Scheduler string `json:"scheduler"`
	// Options tune the run.
	Options gpu.Options `json:"options"`
	// Cost is the job's expected relative run time (informational).
	Cost int64 `json:"cost,omitempty"`
}

// Priority classes a batch may carry. Interactive work
// (paper tables, report reruns, a human at a terminal) is granted
// worker slots ahead of bulk work (sweeps) at a configured ratio, so a
// saturating sweep cannot starve a quick look at one result.
const (
	PriorityInteractive = "interactive"
	PriorityBulk        = "bulk"
)

// Job converts the wire form into an executable job. The spec passes
// through as Job.Scheduler, which the engine resolves as it does for a
// local job, so the cache key matches the local execution path; an
// unknown spec fails that job when it is keyed. Payloads from older
// clients may still carry the removed "smWorkers" and job-level
// "priority" fields; the decoder ignores unknown fields, so such a job
// decodes, keys and runs exactly as without them, in its batch's class
// (pinned by TestWireJobLegacySMWorkersIgnored and
// TestWireJobLegacyPriorityIgnored).
func (wj *WireJob) Job() (jobs.Job, error) {
	if wj.Launch == nil {
		return jobs.Job{}, fmt.Errorf("daemon: wire job has no launch")
	}
	return jobs.Job{
		Config:    wj.Config,
		Launch:    wj.Launch,
		Kernel:    wj.Kernel,
		Scheduler: wj.Scheduler,
		Options:   wj.Options,
		Cost:      wj.Cost,
	}, nil
}

// memoJob is a decoded wire job as the memo holds it: the job (shared
// read-only by every request sending the same bytes) and Engine.Key's
// verdict on it — the key, or the error (keyErr) that keeps failing that
// job, and not the batch, for an unknown scheduler.
type memoJob struct {
	job    jobs.Job
	key    string
	keyErr error
}

// maxJobBytes is the per-job share of the /v1/batch body cap and the
// largest wire job the memo keeps: ~50× the largest Table II job.
const maxJobBytes = 128 << 10

// memoBudget bounds the memo by the summed wire bytes of its jobs (~3 500
// paper-grid jobs; decoded, a hostile `{}`-stuffed program is ~12× its
// bytes). Reaching it empties the memo: repeat traffic refills it in one
// pass, cheaper than keeping an LRU list per hit.
const memoBudget = 8 << 20

// decodeJob is the only way a wire job becomes a jobs.Job. A memo hit
// returns what decoding the same bytes produced earlier; a miss decodes,
// resolves and keys the job, and remembers it unless it failed to decode.
// The bytes are untrusted, hence a cryptographic hash; kernel and cost
// are inside them, so jobs differing only there never alias, and another
// encoding of one job is a miss that lands on the same key.
func (d *Daemon) decodeJob(raw []byte) (*memoJob, error) {
	sum := sha256.Sum256(raw)
	d.memoMu.Lock()
	mj := d.memo[sum]
	d.memoMu.Unlock()
	if mj != nil {
		mMemoHits.Inc()
		return mj, nil
	}
	mMemoMisses.Inc()
	var wj WireJob
	err := json.Unmarshal(raw, &wj)
	mj = &memoJob{}
	if err == nil {
		mj.job, err = wj.Job()
	}
	if err != nil {
		return nil, err
	}
	var ok bool
	if mj.key, ok, mj.keyErr = d.eng.Key(&mj.job); mj.keyErr == nil && !ok {
		mj.keyErr = fmt.Errorf("daemon: job has no stable identity")
	}
	if len(raw) <= maxJobBytes {
		d.memoMu.Lock()
		if d.memoBytes += len(raw); d.memo == nil || d.memoBytes > memoBudget {
			d.memo, d.memoBytes = make(map[[sha256.Size]byte]*memoJob), len(raw)
		}
		d.memo[sum] = mj
		d.memoMu.Unlock()
	}
	return mj, nil
}

// FromJob converts a local job to wire form. A factory job is
// representable only when its FactoryKey is a resolvable spec — an
// anonymous closure cannot cross a process boundary.
func FromJob(j *jobs.Job) (WireJob, error) {
	wj := WireJob{
		Config:  j.Config,
		Launch:  j.Launch,
		Kernel:  j.Kernel,
		Options: j.Options,
		Cost:    j.Cost,
	}
	if j.Factory == nil {
		wj.Scheduler = j.Scheduler
		return wj, nil
	}
	if j.FactoryKey == "" {
		return WireJob{}, fmt.Errorf("daemon: job with anonymous factory cannot be submitted remotely")
	}
	if _, err := schedreg.Resolve(j.FactoryKey); err != nil {
		return WireJob{}, fmt.Errorf("daemon: factory key is not a wire-resolvable spec: %w", err)
	}
	wj.Scheduler = j.FactoryKey
	return wj, nil
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Jobs []WireJob `json:"jobs"`
	// Priority is the class of every job of the batch. Empty means
	// interactive (additive field: batches from older clients predate
	// priority classes and were interactive tools).
	Priority string `json:"priority,omitempty"`
}

// Event is one NDJSON line of a batch response. Type "job" reports one
// completed job; the final line has Type "batch" and carries Results.
type Event struct {
	Type string `json:"type"`

	// Job-event fields.
	//
	// Seq is the 1-based completion sequence within the batch, strictly
	// increasing across the stream; Index is the job's position in the
	// submitted batch (completion order is not submission order).
	Seq   int `json:"seq,omitempty"`
	Index int `json:"index,omitempty"`
	// Kernel and Scheduler identify the job.
	Kernel    string `json:"kernel,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	// Done counts completed jobs of this batch, Total its size.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// FromCache marks a result replayed from the result cache; Deduped
	// marks one obtained by attaching to another submission's in-flight
	// run of the identical job.
	FromCache bool `json:"fromCache,omitempty"`
	Deduped   bool `json:"deduped,omitempty"`
	// CacheHits counts replayed results so far in this batch.
	CacheHits int `json:"cacheHits,omitempty"`
	// ElapsedMS is milliseconds since the batch started; EtaMS estimates
	// the remaining time from the pace of simulated jobs.
	ElapsedMS int64 `json:"elapsedMs,omitempty"`
	EtaMS     int64 `json:"etaMs,omitempty"`
	// Err is the job's failure, if any (the batch keeps running).
	Err string `json:"err,omitempty"`

	// Batch-line field: one entry per job, in job order.
	Results []JobResult `json:"results,omitempty"`
}

// JobResult is one job's outcome on the final batch line.
type JobResult struct {
	Result *stats.KernelResult `json:"result,omitempty"`
	Err    string              `json:"err,omitempty"`
}

// Stats is the body of GET /v1/stats.
type Stats struct {
	// Engine-lifetime job counters (across every batch and client since
	// the daemon started).
	Completed int64 `json:"completed"`
	Simulated int64 `json:"simulated"`
	Replayed  int64 `json:"replayed"`
	// Result-cache counters; zero when the daemon runs cacheless.
	CacheDir    string `json:"cacheDir,omitempty"`
	CacheHits   int64  `json:"cacheHits"`
	CacheMisses int64  `json:"cacheMisses"`
	CacheWrites int64  `json:"cacheWrites"`
	// Extended cache telemetry (additive; older clients ignore them):
	// byte traffic since the daemon opened its cache. Sourced from the
	// same counters the obs registry exposes at /metrics.
	CacheBytesRead    int64 `json:"cacheBytesRead"`
	CacheBytesWritten int64 `json:"cacheBytesWritten"`
	// InFlight counts jobs holding a worker slot (jobs still queued for
	// one are in QueueInteractive and QueueBulk); Attached counts
	// submissions currently waiting on another client's identical
	// in-flight run.
	InFlight int64 `json:"inFlight"`
	Attached int64 `json:"attached"`
	// Batches counts batch requests accepted since start.
	Batches int64 `json:"batches"`
	// UptimeSec is seconds since the daemon started.
	UptimeSec float64 `json:"uptimeSec"`
	// Workers is the worker-slot count.
	Workers int `json:"workers"`
	// Draining is true once a shutdown began (additive; older daemons
	// omit it and older clients ignore it — absent decodes as false).
	Draining bool `json:"draining,omitempty"`
	// Admission telemetry (additive). QueueInteractive and QueueBulk are
	// the per-class admitted-but-not-running job counts; Rejected counts
	// batch requests refused at admission (draining, size, full queue)
	// since start. Older daemons may still send "tenants", "cacheRemote",
	// "l2Hits"/"l2Misses"/"l2Degraded" and the cache-GC counters
	// "cacheGCRuns"/"cacheGCEvicted"/"cacheGCFreedBytes"; the decoder
	// ignores them (pinned by TestStatsWireCompat*).
	QueueInteractive int   `json:"queueInteractive,omitempty"`
	QueueBulk        int   `json:"queueBulk,omitempty"`
	Rejected         int64 `json:"rejected,omitempty"`
}

// Health is the body of GET /v1/health — the lightweight liveness probe
// a cluster coordinator reads once per worker when it is built, for the
// worker's slot count and draining state. Unlike /v1/stats it carries no
// cache counters, so it stays cheap.
type Health struct {
	// Status is "ok" while the daemon accepts work and "draining" once a
	// shutdown began (in-flight jobs are finishing; send new work
	// elsewhere).
	Status string `json:"status"`
	// Draining mirrors Status for programmatic callers.
	Draining bool `json:"draining"`
	// InFlight counts jobs holding a worker slot (jobs still queued for
	// one are in QueueDepth).
	InFlight int64 `json:"inFlight"`
	// UptimeSec is seconds since the daemon started.
	UptimeSec float64 `json:"uptimeSec"`
	// Workers is the worker-slot count.
	Workers int `json:"workers"`
	// QueueDepth is the total admitted-but-not-running job count across
	// both priority classes (additive; a loaded daemon advertises its
	// backlog so pollers can prefer an idle replica).
	QueueDepth int `json:"queueDepth,omitempty"`
}
