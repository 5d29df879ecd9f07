package resultcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// openFilled opens a cache in a fresh directory holding n copies of
// sampleResult under distinct keys, and returns the (common) encoded
// size of one entry. Nothing is in the front yet: Put never fills it.
func openFilled(t *testing.T, n int) (c *Cache, dir string, keys []string, size int64) {
	t.Helper()
	dir = t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys = make([]string, n)
	for i := range keys {
		if keys[i], err = c.Key(i); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(keys[i], sampleResult()); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.front) != 0 {
		t.Fatalf("Put filled the front (%d entries); only a validated disk read may", len(c.front))
	}
	fi, err := os.Stat(c.path(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	return c, dir, keys, fi.Size()
}

// frontAccounted checks the front's byte ledger against its contents.
func frontAccounted(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for _, fe := range c.front {
		sum += fe.size
	}
	if sum != c.frontBytes {
		t.Fatalf("front ledger says %d bytes, its %d entries sum to %d", c.frontBytes, len(c.front), sum)
	}
	if c.frontBytes > c.frontBudget {
		t.Fatalf("front holds %d bytes, over its %d-byte budget", c.frontBytes, c.frontBudget)
	}
}

// TestFrontHitsCountLikeDiskHits: a front hit is a hit — Hits and
// BytesRead advance exactly as for the disk read that filled it, so
// /v1/stats and the bench's counters keep their meaning — and only the
// front counter tells the two apart.
func TestFrontHitsCountLikeDiskHits(t *testing.T) {
	c, _, keys, size := openFilled(t, 1)
	front0 := mFrontHits.Value()
	first, ok := c.Get(keys[0]) // disk
	if !ok || c.Hits() != 1 || c.BytesRead() != size || mFrontHits.Value() != front0 {
		t.Fatalf("disk hit: ok=%v hits=%d bytesRead=%d (entry %d) front+%d",
			ok, c.Hits(), c.BytesRead(), size, mFrontHits.Value()-front0)
	}
	second, ok := c.Get(keys[0]) // front
	if !ok || c.Hits() != 2 || c.BytesRead() != 2*size || mFrontHits.Value() != front0+1 {
		t.Fatalf("front hit: ok=%v hits=%d bytesRead=%d (entry %d) front+%d",
			ok, c.Hits(), c.BytesRead(), size, mFrontHits.Value()-front0)
	}
	if second != first {
		t.Fatal("front hit returned a different pointer than the read that filled it")
	}
	if !reflect.DeepEqual(second, sampleResult()) {
		t.Fatalf("front hit returned %+v", second)
	}
	if c.Misses() != 0 {
		t.Fatalf("Misses = %d, want 0", c.Misses())
	}
}

// TestFrontConcurrentGetAndMarshal: results come out of the front as
// shared pointers; concurrent readers that only encode them must be
// race-free and see identical bytes.
func TestFrontConcurrentGetAndMarshal(t *testing.T) {
	c, _, keys, _ := openFilled(t, 1)
	want, err := json.Marshal(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r, ok := c.Get(keys[0])
				if !ok {
					t.Error("miss on a present entry")
					return
				}
				got, err := json.Marshal(r)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("shared result encoded differently: %v\n%s", err, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Hits() != 8*200 || c.Misses() != 0 {
		t.Fatalf("Hits = %d, Misses = %d, want 1600, 0", c.Hits(), c.Misses())
	}
	frontAccounted(t, c)
}

// TestFrontBudgetEvictsAndOversizeBypasses: the front never exceeds its
// byte budget — older entries leave to make room, every key still hits
// with the right result — and an entry over 1/32 of the budget is never
// admitted.
func TestFrontBudgetEvictsAndOversizeBypasses(t *testing.T) {
	c, _, keys, size := openFilled(t, 40)
	c.frontBudget = 32 * size // room for exactly 32 of the 40
	for round := 0; round < 2; round++ {
		for _, key := range keys {
			if r, ok := c.Get(key); !ok || !reflect.DeepEqual(r, sampleResult()) {
				t.Fatalf("round %d: Get(%s) = %+v, %v", round, key, r, ok)
			}
			frontAccounted(t, c)
		}
	}
	if len(c.front) != 32 {
		t.Fatalf("front holds %d entries under a 32-entry budget and 40 hot keys", len(c.front))
	}
	if c.Hits() != 80 || c.Misses() != 0 {
		t.Fatalf("Hits = %d, Misses = %d, want 80, 0", c.Hits(), c.Misses())
	}

	small, _, keys, size := openFilled(t, 1)
	small.frontBudget = 32*size - 1 // the entry is now just over 1/32
	for i := 0; i < 3; i++ {
		if _, ok := small.Get(keys[0]); !ok {
			t.Fatal("oversize entry missed")
		}
	}
	if len(small.front) != 0 || small.frontBytes != 0 {
		t.Fatalf("oversize entry entered the front (%d entries, %d bytes)", len(small.front), small.frontBytes)
	}
	if small.Hits() != 3 {
		t.Fatalf("Hits = %d, want 3 (bypassing the front must not change counting)", small.Hits())
	}
}

// TestFrontNeverOutlivesTheProcess: the front holds only what a disk
// read validated, so a file corrupted afterwards cannot make it serve a
// wrong answer — it keeps serving the right one — and a fresh Open of
// the directory (a restart) has no front and reports the miss.
func TestFrontNeverOutlivesTheProcess(t *testing.T) {
	c, dir, keys, _ := openFilled(t, 1)
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("miss on a present entry")
	}
	if err := os.WriteFile(filepath.Join(dir, keys[0]+".json"), []byte("\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, ok := c.Get(keys[0]); !ok || !reflect.DeepEqual(r, sampleResult()) {
		t.Fatalf("front served %+v, %v for an entry it had validated", r, ok)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(keys[0]); ok {
		t.Fatal("a fresh Open returned a hit for a corrupted file")
	}
	if fresh.Misses() != 1 || len(fresh.front) != 0 {
		t.Fatalf("fresh cache: Misses = %d, front entries = %d", fresh.Misses(), len(fresh.front))
	}
}
