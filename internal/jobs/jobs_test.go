package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/resultcache"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// testBatch is a small kernels × schedulers grid.
func testBatch(t *testing.T) []Job {
	t.Helper()
	var ws []*workloads.Workload
	for _, k := range []string{"aesEncrypt128", "scalarProdGPU"} {
		w, err := workloads.ByKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return Grid(ws, []string{"LRR", "PRO"}, 8, gpu.Options{})
}

// mustRun runs the batch and fails the test on error.
func mustRun(t *testing.T, e *Engine, js []Job) []json.RawMessage {
	t.Helper()
	rs, err := e.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]json.RawMessage, len(rs))
	for i, r := range rs {
		if r == nil {
			t.Fatalf("job %d produced a nil result", i)
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

func TestParallelMatchesSerial(t *testing.T) {
	js := testBatch(t)
	serial := mustRun(t, &Engine{Workers: 1}, js)
	parallel := mustRun(t, &Engine{Workers: 4}, js)
	for i := range js {
		if string(serial[i]) != string(parallel[i]) {
			t.Fatalf("job %d (%s/%s): parallel result differs from serial",
				i, js[i].Kernel, js[i].Scheduler)
		}
	}
}

func TestCacheWarmRunSimulatesNothing(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	js := testBatch(t)

	var cold, warm []Event
	e := &Engine{Workers: 2, Cache: cache, OnProgress: func(ev Event) { cold = append(cold, ev) }}
	first := mustRun(t, e, js)
	if got := cold[len(cold)-1]; got.CacheHits != 0 || got.Simulated() != len(js) {
		t.Fatalf("cold run: hits %d, simulated %d", got.CacheHits, got.Simulated())
	}

	e.OnProgress = func(ev Event) { warm = append(warm, ev) }
	second := mustRun(t, e, js)
	last := warm[len(warm)-1]
	if last.CacheHits != len(js) || last.Simulated() != 0 {
		t.Fatalf("warm run simulated %d jobs, %d hits; want 0 simulations",
			last.Simulated(), last.CacheHits)
	}
	for _, ev := range warm {
		if !ev.FromCache {
			t.Fatalf("warm run event %s/%s not from cache", ev.Kernel, ev.Scheduler)
		}
	}
	for i := range js {
		if string(first[i]) != string(second[i]) {
			t.Fatalf("job %d: cached result differs from simulated", i)
		}
	}
	if cache.Hits() != int64(len(js)) {
		t.Fatalf("cache.Hits = %d, want %d", cache.Hits(), len(js))
	}
}

func TestCacheKeysDiscriminateJobs(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 2, Cache: cache}
	js := testBatch(t)
	mustRun(t, e, js)
	if cache.Writes() != int64(len(js)) {
		t.Fatalf("cache.Writes = %d, want %d distinct entries", cache.Writes(), len(js))
	}
}

func TestProgressEventsAreOrdered(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	e := &Engine{Workers: 4, OnProgress: func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}
	js := testBatch(t)
	mustRun(t, e, js)
	if len(events) != len(js) {
		t.Fatalf("%d events for %d jobs", len(events), len(js))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(js) {
			t.Fatalf("event %d: Done %d / Total %d", i, ev.Done, ev.Total)
		}
		if ev.ETA < 0 {
			t.Fatalf("event %d: negative ETA %v", i, ev.ETA)
		}
	}
	if events[len(events)-1].ETA != 0 {
		t.Fatal("final event should have zero ETA")
	}
}

func TestPanicIsCapturedAsJobError(t *testing.T) {
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	js := []Job{{
		Launch: w.Shrunk(4).Launch,
		Kernel: w.Kernel,
		Factory: func(sm *engine.SM) engine.Scheduler {
			panic("policy exploded")
		},
	}}
	_, err = (&Engine{Workers: 2}).Run(context.Background(), js)
	if err == nil {
		t.Fatal("panic in a job did not surface as an error")
	}
	if !strings.Contains(err.Error(), "policy exploded") {
		t.Fatalf("error lost the panic value: %v", err)
	}
	if !strings.Contains(err.Error(), w.Kernel) {
		t.Fatalf("error lost the job identity: %v", err)
	}
}

func TestUnknownSchedulerFailsBatch(t *testing.T) {
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	js := Grid([]*workloads.Workload{w}, []string{"BOGUS"}, 4, gpu.Options{})
	if _, err := (&Engine{}).Run(context.Background(), js); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestCancelledContextStopsBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ws []*workloads.Workload
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, w)
	js := Grid(ws, []string{"LRR", "GTO", "TL", "PRO"}, 8, gpu.Options{})
	if _, err := (&Engine{Workers: 2}).Run(ctx, js); err == nil {
		t.Fatal("cancelled context did not abort the batch")
	}
}

func TestEmptyBatch(t *testing.T) {
	rs, err := (&Engine{}).Run(context.Background(), nil)
	if err != nil || rs != nil {
		t.Fatalf("empty batch: %v, %v", rs, err)
	}
}

func TestCustomFactoryCachesOnlyWithKey(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByKernel("scalarProdGPU")
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 1, Cache: cache}
	j := Job{
		Launch:  w.Shrunk(4).Launch,
		Kernel:  w.Kernel,
		Factory: sched.NewLRR,
	}

	// Anonymous factory: runs, but must never be cached.
	if _, err := e.RunOne(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if cache.Writes() != 0 {
		t.Fatalf("anonymous factory was cached: writes = %d", cache.Writes())
	}

	// The same factory with a stable identity caches and replays.
	j.FactoryKey = "LRR-custom"
	if _, err := e.RunOne(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if cache.Writes() != 1 {
		t.Fatalf("keyed factory not cached: writes = %d", cache.Writes())
	}
	if _, err := e.RunOne(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 1 {
		t.Fatalf("keyed factory not replayed: hits = %d", cache.Hits())
	}
}

func TestGridOrderIsSchedulerMajorPerWorkload(t *testing.T) {
	w1, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workloads.ByKernel("scalarProdGPU")
	if err != nil {
		t.Fatal(err)
	}
	js := Grid([]*workloads.Workload{w1, w2}, []string{"LRR", "PRO"}, 10, gpu.Options{})
	want := [][2]string{
		{"aesEncrypt128", "LRR"}, {"aesEncrypt128", "PRO"},
		{"scalarProdGPU", "LRR"}, {"scalarProdGPU", "PRO"},
	}
	if len(js) != len(want) {
		t.Fatalf("%d jobs, want %d", len(js), len(want))
	}
	for i, j := range js {
		if j.Kernel != want[i][0] || j.Scheduler != want[i][1] {
			t.Fatalf("job %d = %s/%s, want %s/%s", i, j.Kernel, j.Scheduler, want[i][0], want[i][1])
		}
		if j.Launch.GridTBs > 10 {
			t.Fatalf("job %d grid not shrunk: %d", i, j.Launch.GridTBs)
		}
	}
}

func TestETAUsesSimulatedPace(t *testing.T) {
	// 10 jobs, 4 done in 4s — but 3 of those were cache hits: only one
	// job was actually simulated, so the remaining 6 should be estimated
	// at ~4s each, not at the collapsed mean of 1s.
	got := ETA(4*time.Second, 4, 3, 10)
	if got != 24*time.Second {
		t.Fatalf("eta = %v, want 24s (pace of simulated jobs)", got)
	}
	// All-hits warm run: no simulated pace to extrapolate, fall back to
	// the overall pace.
	if got := ETA(4*time.Second, 4, 4, 10); got != 6*time.Second {
		t.Fatalf("all-hit eta = %v, want 6s (overall pace)", got)
	}
	if ETA(time.Second, 0, 0, 10) != 0 {
		t.Fatal("eta before the first completion should be 0")
	}
	if ETA(time.Second, 10, 2, 10) != 0 {
		t.Fatal("eta after the last completion should be 0")
	}
}

func TestContextCancelAbortsLongJob(t *testing.T) {
	w, err := workloads.ByKernel("scalarProdGPU")
	if err != nil {
		t.Fatal(err)
	}
	// The full grid simulates for roughly a second; cancelling shortly
	// after the start must abort it long before it finishes.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	e := &Engine{Workers: 1}
	start := time.Now()
	_, _, err = e.RunJob(ctx, &Job{Launch: w.Launch, Kernel: w.Kernel, Scheduler: "PRO"})
	if err == nil {
		t.Fatal("cancelled job completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v; the simulation ran to completion", d)
	}
}

func TestKeyMatchesCachedEntries(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 1, Cache: cache}
	j := Job{Launch: w.Shrunk(4).Launch, Kernel: w.Kernel, Scheduler: "LRR"}
	key, ok, err := e.Key(&j)
	if err != nil || !ok {
		t.Fatalf("Key: %v, ok=%v", err, ok)
	}
	if _, err := e.RunOne(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if _, hit := cache.Get(key); !hit {
		t.Fatal("Engine.Key does not address the entry RunOne wrote")
	}
	// The key of this default-GTX480 job at schema v3. It hashes the
	// config description written before config.Config lost its
	// parallel-tick fields: removing execution knobs must leave existing
	// .simcache directories warm.
	const v3Key = "1034ea638f5a3c5e9a1e9327dc8fab0535e05c815d428254668aa59beb477d37"
	if key != v3Key {
		t.Fatalf("cache key of a default-GTX480 job moved:\n got %s\nwant %s", key, v3Key)
	}

	// An anonymous factory has no stable identity.
	j2 := Job{Launch: w.Shrunk(4).Launch, Factory: sched.NewLRR}
	if _, ok, err := e.Key(&j2); err != nil || ok {
		t.Fatalf("anonymous factory got a key (ok=%v, err=%v)", ok, err)
	}

	// Without a cache the key must still be derivable (the daemon
	// dedupes in-flight work even when running cacheless).
	e2 := &Engine{}
	key2, ok, err := e2.Key(&j)
	if err != nil || !ok || key2 != key {
		t.Fatalf("cacheless Key = %q, ok=%v, err=%v; want %q", key2, ok, err, key)
	}
}
