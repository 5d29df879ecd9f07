package resultcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Process-wide GC telemetry, aggregated like the hit/miss counters in
// resultcache.go.
var (
	mGCRuns    = obs.NewCounter("resultcache_gc_runs_total", "completed GC passes")
	mGCEvicted = obs.NewCounter("resultcache_gc_evicted_total", "entries evicted by GC")
	mGCFreed   = obs.NewCounter("resultcache_gc_freed_bytes_total", "bytes freed by GC (stale temp files included)")
	mGCTmp     = obs.NewCounter("resultcache_gc_tmp_files_total", "abandoned put-*.tmp files removed by GC")
)

// GCStats reports what one GC pass found and removed.
type GCStats struct {
	// Entries and Bytes describe the cache before the pass. Bytes
	// includes stale temp files, so the directory's true footprint is
	// visible even when killed writers littered it.
	Entries int
	Bytes   int64
	// Evicted and Freed describe what the pass removed (Freed includes
	// stale temp files).
	Evicted int
	Freed   int64
	// TmpFiles and TmpBytes count the stale put-*.tmp files removed:
	// temp files abandoned by a writer that died between CreateTemp and
	// Rename. Fresh temp files (a Put in flight) are never touched.
	TmpFiles int
	TmpBytes int64
}

// tmpMaxAge is the safety margin before an orphaned put-*.tmp file is
// considered abandoned. A live Put holds its temp file for milliseconds
// (one JSON encode plus a write and rename), so anything this old
// belongs to a killed process.
const tmpMaxAge = time.Hour

// GC evicts least-recently-used entries until the cache fits in maxBytes
// (the on-disk size of the entry files; maxBytes <= 0 empties the
// cache). Recency is the entry's access time where the filesystem
// tracks one — Get touches its entry's timestamps explicitly (a hot
// entry's at least once per touchEvery), so relatime/noatime mounts
// still observe hits — with the modification time as fallback. Evicted
// keys leave the decoded front too. Concurrent writers are safe: an
// eviction race at worst deletes an entry that was just re-read.
func (c *Cache) GC(maxBytes int64) (GCStats, error) {
	type entry struct {
		path string
		size int64
		used time.Time
	}
	names, err := filepath.Glob(filepath.Join(c.dir, "*.json"))
	if err != nil {
		return GCStats{}, fmt.Errorf("resultcache: gc: %w", err)
	}
	var st GCStats
	// Record telemetry even for a pass that errors mid-eviction: what
	// was removed is gone either way.
	defer func() {
		c.gcRuns.Add(1)
		c.gcEvicted.Add(int64(st.Evicted))
		c.gcFreed.Add(st.Freed)
		mGCRuns.Inc()
		mGCEvicted.Add(int64(st.Evicted))
		mGCFreed.Add(st.Freed)
		mGCTmp.Add(int64(st.TmpFiles))
	}()
	if err := c.gcTmp(&st); err != nil {
		return st, err
	}
	entries := make([]entry, 0, len(names))
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			continue // already evicted by a concurrent pass
		}
		entries = append(entries, entry{path: name, size: fi.Size(), used: accessTime(fi)})
		st.Entries++
		st.Bytes += fi.Size()
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].used.Equal(entries[j].used) {
			return entries[i].used.Before(entries[j].used)
		}
		return entries[i].path < entries[j].path
	})
	total := st.Bytes - st.TmpBytes // stale tmp files are already gone
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return st, fmt.Errorf("resultcache: gc: %w", err)
		}
		c.mu.Lock()
		c.forget(strings.TrimSuffix(filepath.Base(e.path), ".json"))
		c.mu.Unlock()
		total -= e.size
		st.Evicted++
		st.Freed += e.size
	}
	return st, nil
}

// gcTmp removes abandoned put-*.tmp files — the atomic-write temp files
// a killed run leaves behind, which Glob("*.json") never sees and which
// would otherwise accumulate forever. Only files older than tmpMaxAge
// go, so a concurrent Put's in-flight temp file is never pulled out from
// under it.
func (c *Cache) gcTmp(st *GCStats) error {
	tmps, err := filepath.Glob(filepath.Join(c.dir, "put-*.tmp"))
	if err != nil {
		return fmt.Errorf("resultcache: gc: %w", err)
	}
	cutoff := time.Now().Add(-tmpMaxAge)
	for _, name := range tmps {
		fi, err := os.Stat(name)
		if err != nil {
			continue // already renamed or removed by its writer
		}
		if fi.ModTime().After(cutoff) {
			continue // a Put may still be writing it
		}
		st.Bytes += fi.Size()
		if err := os.Remove(name); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("resultcache: gc: %w", err)
		}
		st.TmpFiles++
		st.TmpBytes += fi.Size()
		st.Freed += fi.Size()
	}
	return nil
}

// ParseSize parses a human-friendly byte size: a plain integer is
// bytes; suffixes K, M, G, T (case-insensitive, optionally followed by
// "B" or "iB") scale by powers of 1024.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	t = strings.TrimSuffix(t, "IB")
	t = strings.TrimSuffix(t, "B")
	shift := 0
	switch {
	case strings.HasSuffix(t, "K"):
		shift, t = 10, strings.TrimSuffix(t, "K")
	case strings.HasSuffix(t, "M"):
		shift, t = 20, strings.TrimSuffix(t, "M")
	case strings.HasSuffix(t, "G"):
		shift, t = 30, strings.TrimSuffix(t, "G")
	case strings.HasSuffix(t, "T"):
		shift, t = 40, strings.TrimSuffix(t, "T")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("resultcache: invalid size %q", s)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("resultcache: size %q overflows", s)
	}
	return n << shift, nil
}
