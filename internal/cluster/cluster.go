// Package cluster turns N independent prosimd replicas into one sweep
// cluster. The paper's evaluation is an embarrassingly parallel grid
// (schedulers × benchmarks × configs) of deterministic jobs whose
// results are content-addressed (internal/resultcache), which makes
// horizontal scaling almost free — the cluster layer only has to decide
// *where* each job runs and reassemble the batch afterwards:
//
//   - Coordinator fans a batch out to a set of prosimd workers through
//     jobs.Dispatch, the local engine's queue-and-lanes loop: every
//     worker slot is a lane that takes the next pending job in batch
//     order, an overloaded worker's lane pauses for its Retry-After
//     hint, a worker whose dispatch fails in transport is lost and the
//     job goes back to the queue for the survivors, and a job that
//     failed in the simulator fails the batch.
//   - Run assembles results purely from the result cache, so an
//     interrupted sweep resumes for free (already-cached jobs are never
//     dispatched) and the final suite is bit-identical to a local
//     serial run.
//
// Every merge keys off jobs.Key — the exact identity the
// result cache files entries under — so cluster runs, daemon runs and
// local runs all converge on the same cache entries.
package cluster

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// Cluster telemetry (internal/obs). Process-wide counters; per-worker
// series are created per address via obs.Labeled when a Coordinator is
// built.
var (
	mRetries = obs.NewCounter("cluster_retries_total",
		"jobs put back on the queue after a worker loss or an overload refusal")
	mLost = obs.NewCounter("cluster_workers_lost_total",
		"workers marked down by the New probe or a failed dispatch")
	mMergeHits = obs.NewCounter("cluster_merge_hits_total",
		"jobs assembled from the shared result cache without any dispatch")
	mDispatched = obs.NewCounter("cluster_jobs_dispatched_total",
		"job attempts handed to a worker (retries included)")
)

// batchKeys computes the result-cache key of every job, failing on jobs
// without a stable identity: they can be neither sent to a worker nor
// merged from a cache.
func batchKeys(js []jobs.Job) ([]string, error) {
	keys := make([]string, len(js))
	for k := range js {
		key, ok, err := jobs.Key(&js[k])
		if err != nil {
			return nil, fmt.Errorf("cluster: job %d (%s/%s): %w", k, js[k].Label(), js[k].SchedLabel(), err)
		}
		if !ok {
			return nil, fmt.Errorf("cluster: job %d (%s/%s) has no stable identity",
				k, js[k].Label(), js[k].SchedLabel())
		}
		keys[k] = key
	}
	return keys, nil
}

// shortKey abbreviates a 64-hex-char cache key for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
