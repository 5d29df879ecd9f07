// Package cluster turns N independent prosimd replicas into one sweep
// cluster. The paper's evaluation is an embarrassingly parallel grid
// (schedulers × benchmarks × configs) of deterministic jobs whose
// results are content-addressed (internal/resultcache), which makes
// horizontal scaling almost free — the cluster layer only has to decide
// *where* each job runs and reassemble the batch afterwards:
//
//   - Shard slices an ordered batch into disjoint, stable subsets by
//     result-cache key, so independent machines given `-shard i/n` run
//     non-overlapping work against a shared cache with no coordination
//     at all.
//   - Coordinator actively fans a batch out to a set of prosimd
//     workers through jobs.Dispatch, the local engine's queue-and-lanes
//     loop: every worker slot is a lane that takes the next pending job
//     in batch order, an overloaded worker's lane pauses for its
//     Retry-After hint, health checks mark lost workers down, a job lost
//     to a transport failure goes back to the queue for the survivors,
//     and a job that failed in the simulator fails the batch.
//   - Run assembles results purely from the result cache, so an
//     interrupted sweep resumes for free (already-cached jobs are never
//     dispatched) and the final suite is bit-identical to a local
//     serial run.
//
// Every placement decision keys off jobs.Key — the exact identity the
// result cache files entries under — so cluster runs, daemon runs and
// local runs all converge on the same cache entries.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

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
		"workers marked down after transport or health-check failures")
	mMergeHits = obs.NewCounter("cluster_merge_hits_total",
		"jobs assembled from the shared result cache without any dispatch")
	mDispatched = obs.NewCounter("cluster_jobs_dispatched_total",
		"job attempts handed to a worker (retries included)")
)

// ParseShard parses the CLI shard spec "i/n" (1-based, so "-shard 1/3"
// is the first of three slices) into a 0-based shard index and count.
func ParseShard(spec string) (i, n int, err error) {
	a, b, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("cluster: shard spec %q is not i/n", spec)
	}
	i, err = strconv.Atoi(strings.TrimSpace(a))
	if err == nil {
		n, err = strconv.Atoi(strings.TrimSpace(b))
	}
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: shard spec %q is not i/n: %w", spec, err)
	}
	if n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("cluster: shard spec %q out of range (want 1 <= i <= n)", spec)
	}
	return i - 1, n, nil
}

// shardOf maps a result-cache key to its shard among n. The key is
// already a sha256 hex digest, so its leading 64 bits are uniform — a
// modulo balances shards to within noise without any extra hashing.
// Assignment depends on nothing but (key, n): reordering a batch,
// splitting it differently across processes, or re-running tomorrow all
// land every job on the same shard.
func shardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := key
	if len(h) > 16 {
		h = h[:16]
	}
	v, err := strconv.ParseUint(h, 16, 64)
	if err != nil {
		// Not a hex key (cannot happen for resultcache keys) — fall back
		// to a FNV-1a over the whole string, still deterministic.
		var f uint64 = 14695981039346656037
		for i := 0; i < len(key); i++ {
			f ^= uint64(key[i])
			f *= 1099511628211
		}
		v = f
	}
	return int(v % uint64(n))
}

// ShardIndices returns the positions of the jobs of shard i of n within
// js, in batch order. Every job of an ordered batch lands in exactly
// one shard, and the assignment is stable: it depends only on the job's
// result-cache key and n, never on the job's position. A job with no
// stable identity (anonymous factory) cannot be sharded — placement
// would not be reproducible — and is an error.
func ShardIndices(i, n int, js []jobs.Job) ([]int, error) {
	if n < 1 || i < 0 || i >= n {
		return nil, fmt.Errorf("cluster: shard %d/%d out of range", i, n)
	}
	keys, err := batchKeys(js)
	if err != nil {
		return nil, err
	}
	var out []int
	for k, key := range keys {
		if shardOf(key, n) == i {
			out = append(out, k)
		}
	}
	return out, nil
}

// Shard returns the subset of js belonging to shard i of n, preserving
// batch order (see ShardIndices for the assignment contract).
func Shard(i, n int, js []jobs.Job) ([]jobs.Job, error) {
	idx, err := ShardIndices(i, n, js)
	if err != nil {
		return nil, err
	}
	out := make([]jobs.Job, len(idx))
	for k, j := range idx {
		out[k] = js[j]
	}
	return out, nil
}

// batchKeys computes the result-cache key of every job, failing on jobs
// without a stable identity: they can be neither placed reproducibly
// nor merged from a cache.
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
