// Package resultcache memoizes simulation results on disk. The
// simulator is deterministic — the same (GPU config, launch, scheduling
// policy, options) always produces the same stats.KernelResult — so a
// result can be stored under a content hash of its inputs and replayed
// on any later run. Warm re-runs of the evaluation harnesses then
// perform zero simulations.
//
// Layout: one JSON file per result, <dir>/<hex key>.json, wrapped in an
// envelope that repeats the schema version and key. A missing file,
// unreadable file, malformed JSON, or envelope mismatch is a cache
// miss, never an error: the caller recomputes and overwrites. Writes go
// through a temp file plus rename so concurrent writers (the parallel
// job engine) can never expose a half-written entry.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Process-wide cache telemetry (internal/obs). These aggregate over
// every open cache in the process; per-cache counters for /v1/stats
// live on the Cache struct.
var (
	mHits       = obs.NewCounter("resultcache_hits_total", "successful cache Gets")
	mMisses     = obs.NewCounter("resultcache_misses_total", "failed cache Gets (absent, corrupt, or wrong schema)")
	mWrites     = obs.NewCounter("resultcache_writes_total", "successful cache Puts")
	mBytesRead  = obs.NewCounter("resultcache_read_bytes_total", "bytes read by cache hits")
	mBytesWrite = obs.NewCounter("resultcache_written_bytes_total", "bytes written by cache Puts")
	mFrontHits  = obs.NewCounter("resultcache_front_hits_total", "cache hits served from the decoded in-memory front (a subset of hits)")
)

// SchemaVersion is the cache format generation. Bump it whenever the
// simulator's observable behaviour changes (new counters, timing-model
// fixes, KernelResult field changes): the version participates in every
// key, so stale entries from older schemas can never hit.
//
// v2: PRO re-sort cadence fix — the THRESHOLD refresh now fires every
// THRESHOLD cycles instead of every THRESHOLD+1, shifting PRO-family
// cycle counts.
//
// v3: an Exit no longer reaches Scheduler.OnIssue, so GTO stops leaving
// a finished warp as greedy for a pooled TB to inherit; GTO cycle counts
// on kernels with TB churn move to their unpooled values.
const SchemaVersion = 3

// Cache is a content-addressed store of KernelResults in one directory.
// All methods are safe for concurrent use.
type Cache struct {
	dir     string
	version int

	hits         atomic.Int64
	misses       atomic.Int64
	writes       atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	// Cumulative GC telemetry over this cache's lifetime (each pass's
	// GCStats describes only that pass).
	gcRuns    atomic.Int64
	gcEvicted atomic.Int64
	gcFreed   atomic.Int64

	// The decoded front (DESIGN.md §9.5): results Get read from disk and
	// validated, by key; entries are immutable, so callers share them.
	now         func() time.Time // the touch clock; tests inject one
	frontBudget int64            // frontBudgetBytes; tests shrink it
	mu          sync.Mutex
	front       map[string]*frontEntry
	frontBytes  int64
}

// frontEntry is one decoded result in the front. size is its encoded
// length: the budget's unit, and what a hit adds to BytesRead.
type frontEntry struct {
	res     *stats.KernelResult
	size    int64
	touched time.Time
}

// frontBudgetBytes bounds the front by summed encoded entry bytes (~60 000
// ordinary 0.5 KB entries). An entry over 1/32 of it — a Timeline-bearing
// result — bypasses the front, so one large result cannot flush the rest.
const frontBudgetBytes = 32 << 20

// touchEvery is how often a front-served entry's file timestamps are
// refreshed — often enough that GC's LRU still sees a hot key as hot.
const touchEvery = time.Minute

// envelope is the on-disk wrapper: the version and key guard against
// reading entries written by a different schema or a corrupted file.
type envelope struct {
	Schema int                 `json:"schema"`
	Key    string              `json:"key"`
	Result *stats.KernelResult `json:"result"`
}

// Open creates (if needed) and opens a cache directory at the current
// schema version.
func Open(dir string) (*Cache, error) { return OpenVersion(dir, SchemaVersion) }

// OpenVersion opens a cache pinned to an explicit schema version; tests
// use it to prove that version bumps invalidate old entries.
func OpenVersion(dir string, version int) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir, version: version, now: time.Now,
		frontBudget: frontBudgetBytes, front: make(map[string]*frontEntry)}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Key hashes an arbitrary JSON-encodable description of a simulation
// together with the cache schema version into a stable hex key.
func (c *Cache) Key(desc any) (string, error) { return Key(c.version, desc) }

// Key hashes a JSON-encodable description of a simulation together with
// an explicit schema version into a stable hex key. Go's encoding/json
// emits struct fields in declaration order, so the same inputs always
// produce the same bytes. Callers without an open cache (the daemon's
// in-flight dedupe) use Key(SchemaVersion, desc) and get the same keys
// the cache files entries under.
func Key(version int, desc any) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "resultcache/v%d\n", version)
	enc := json.NewEncoder(h)
	if err := enc.Encode(desc); err != nil {
		return "", fmt.Errorf("resultcache: encoding key: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// path maps a key to its file.
func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// Get returns the cached result for key, or (nil, false) on any kind of
// miss — absent, unreadable, corrupt, or from a different schema. The
// result may be shared with other callers: treat it as read-only.
func (c *Cache) Get(key string) (*stats.KernelResult, bool) {
	now := c.now()
	c.mu.Lock()
	fe := c.front[key]
	stale := fe != nil && now.Sub(fe.touched) >= touchEvery
	if stale {
		fe.touched = now
	}
	c.mu.Unlock()
	if fe != nil {
		mFrontHits.Inc()
		c.hit(key, fe.size, stale)
		return fe.res, true
	}
	data, err := os.ReadFile(c.path(key))
	var env envelope
	if err != nil || json.Unmarshal(data, &env) != nil ||
		env.Schema != c.version || env.Key != key || env.Result == nil {
		c.misses.Add(1)
		mMisses.Inc()
		return nil, false
	}
	size := int64(len(data))
	c.hit(key, size, true)
	if size <= c.frontBudget/32 {
		c.mu.Lock()
		c.forget(key) // a racing Get of the same key may have filled it
		for k := range c.front {
			if c.frontBytes+size <= c.frontBudget {
				break
			}
			c.forget(k)
		}
		c.front[key] = &frontEntry{res: env.Result, size: size, touched: now}
		c.frontBytes += size
		c.mu.Unlock()
	}
	return env.Result, true
}

// forget drops key from the front; c.mu must be held.
func (c *Cache) forget(key string) {
	if fe := c.front[key]; fe != nil {
		delete(c.front, key)
		c.frontBytes -= fe.size
	}
}

// hit counts one successful read of an entry of size encoded bytes and,
// when touch is set, marks its file as recently used — best effort: a
// vanished entry or a read-only directory is not an error.
func (c *Cache) hit(key string, size int64, touch bool) {
	c.hits.Add(1)
	c.bytesRead.Add(size)
	mHits.Inc()
	mBytesRead.Add(size)
	if touch {
		now := c.now()
		_ = os.Chtimes(c.path(key), now, now)
	}
}

// Put stores a result under key, atomically replacing any previous
// entry.
func (c *Cache) Put(key string, r *stats.KernelResult) error {
	data, err := json.Marshal(envelope{Schema: c.version, Key: key, Result: r})
	if err != nil {
		return fmt.Errorf("resultcache: encoding result: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	c.writes.Add(1)
	c.bytesWritten.Add(int64(len(data)))
	mWrites.Inc()
	mBytesWrite.Add(int64(len(data)))
	return nil
}

// Hits returns the number of successful Gets since Open.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of failed Gets since Open.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Writes returns the number of successful Puts since Open.
func (c *Cache) Writes() int64 { return c.writes.Load() }

// BytesRead returns the bytes returned by cache hits since Open.
func (c *Cache) BytesRead() int64 { return c.bytesRead.Load() }

// BytesWritten returns the bytes written by Puts since Open.
func (c *Cache) BytesWritten() int64 { return c.bytesWritten.Load() }

// GCRuns returns the number of GC passes since Open.
func (c *Cache) GCRuns() int64 { return c.gcRuns.Load() }

// GCEvicted returns entries evicted across all GC passes since Open.
func (c *Cache) GCEvicted() int64 { return c.gcEvicted.Load() }

// GCFreed returns bytes freed across all GC passes since Open (stale
// temp files included).
func (c *Cache) GCFreed() int64 { return c.gcFreed.Load() }
