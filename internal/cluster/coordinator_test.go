package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/jobs/jobstest"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/prosim"
)

// testCluster starts n in-process prosimd daemons sharing one result
// cache directory and returns their addresses plus the servers (so a
// test can kill one).
func testCluster(t *testing.T, n int, cacheDir string) (addrs []string, srvs []*httptest.Server) {
	t.Helper()
	for i := 0; i < n; i++ {
		d, err := daemon.New(daemon.Config{Workers: 2, CacheDir: cacheDir})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(d.Handler())
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.URL)
		srvs = append(srvs, srv)
	}
	return addrs, srvs
}

// gridBatch builds a realistic multi-kernel batch with a few duplicate
// jobs (equal cache keys) appended.
func gridBatch(t *testing.T) []jobs.Job {
	t.Helper()
	var ws []*workloads.Workload
	for _, k := range []string{"aesEncrypt128", "scalarProdGPU", "calculate_temp"} {
		w, err := workloads.ByKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	batch := jobs.Grid(ws, []string{"TL", "LRR", "GTO", "PRO"}, 8, gpu.Options{})
	return append(batch, batch[0], batch[len(batch)-1])
}

// serialRun is the reference every cluster result is compared with: the
// batch on a cache-less single-worker local engine.
func serialRun(t *testing.T, batch []jobs.Job) []*stats.KernelResult {
	t.Helper()
	eng, err := jobs.New(1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterSurvivesWorkerLossAndMatchesSerial is the subsystem's
// acceptance test: a batch fanned across three workers completes after
// one of them dies (the jobs its lanes took go back to the queue for
// the survivors), the assembled results are byte-identical to a serial
// single-process run, and a fresh coordinator re-running the same batch
// dispatches nothing — full merge from the shared cache.
func TestClusterSurvivesWorkerLossAndMatchesSerial(t *testing.T) {
	cacheDir := t.TempDir()
	addrs, srvs := testCluster(t, 3, cacheDir)
	batch := gridBatch(t)
	want := serialRun(t, batch)

	coord, err := New(Config{Workers: addrs, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the first worker after the healthy New probe. Its lanes start
	// first and the queue holds the whole batch, so they take jobs, fail
	// the dispatches while the batch is in flight, and the survivors run
	// those jobs.
	const victim = 0
	srvs[victim].CloseClientConnections()
	srvs[victim].Close()

	got, err := coord.Run(context.Background(), batch)
	if err != nil {
		t.Fatalf("cluster run with a dead worker: %v", err)
	}
	compareResults(t, want, got, "cluster vs serial")

	st := coord.Snapshot()
	if st.Retries < 1 {
		t.Fatalf("worker loss triggered %d retries, want >= 1", st.Retries)
	}
	if !st.Workers[victim].Down {
		t.Fatalf("killed worker %s not marked down", addrs[victim])
	}
	if st.Workers[victim].Dispatched < 1 {
		t.Fatalf("victim recorded %d dispatches, want >= 1 (the failed attempts)", st.Workers[victim].Dispatched)
	}

	// A fresh coordinator over the survivors re-runs the batch without a
	// single dispatch: every job merges from the shared cache.
	survivors := append([]string{}, addrs[:victim]...)
	survivors = append(survivors, addrs[victim+1:]...)
	coord2, err := New(Config{Workers: survivors, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := coord2.Run(context.Background(), batch)
	if err != nil {
		t.Fatalf("merge-only re-run: %v", err)
	}
	compareResults(t, want, got2, "merge-only re-run vs serial")
	st2 := coord2.Snapshot()
	if st2.MergeHits != int64(len(batch)) {
		t.Fatalf("re-run merged %d of %d jobs from cache", st2.MergeHits, len(batch))
	}
	for _, w := range st2.Workers {
		if w.Dispatched != 0 {
			t.Fatalf("re-run dispatched %d jobs to %s, want 0 (full merge)", w.Dispatched, w.Addr)
		}
	}
}

// TestClusterRequeuesJobsADrainingWorkerAborts: when one worker's drain
// expires mid-job, the jobs its shutdown aborts are lost work, not
// failures — the daemon ends their batch without results, so the
// coordinator requeues them on the survivor and the batch still equals a
// serial run.
func TestClusterRequeuesJobsADrainingWorkerAborts(t *testing.T) {
	cacheDir := t.TempDir()
	victim, err := daemon.New(daemon.Config{Workers: 1, CacheDir: cacheDir, DrainTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l, err := daemon.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- victim.Serve(l) }()
	addrs, _ := testCluster(t, 1, cacheDir)
	addrs = append([]string{l.Addr().String()}, addrs...)

	var batch []jobs.Job
	for _, sched := range []string{"PRO", "GTO", "LRR", "TL"} {
		j := jobstest.SlowJob(250 * time.Millisecond)
		j.Scheduler = sched
		batch = append(batch, j)
	}
	want := serialRun(t, batch)

	coord, err := New(Config{Workers: addrs, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		rs  []*stats.KernelResult
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		rs, err := coord.Run(context.Background(), batch)
		ran <- outcome{rs, err}
	}()
	probe := daemon.NewClient(addrs[0])
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		st, err := probe.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the victim never ran a job")
		}
	}
	if err := victim.Shutdown(); err == nil {
		t.Fatal("the victim drained cleanly: its drain did not expire mid-job")
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	got := <-ran
	if got.err != nil {
		t.Fatalf("cluster run with a worker whose drain expired: %v", got.err)
	}
	compareResults(t, want, got.rs, "cluster vs serial")
	st := coord.Snapshot()
	if st.Retries < 1 || !st.Workers[0].Down {
		t.Fatalf("the aborted job was not requeued: %d retries, victim down %v", st.Retries, st.Workers[0].Down)
	}
}

// TestCoordinatorSurvivesOverloadedWorker: a worker that refuses every
// batch with 429 (Retry-After: 30) but answers its health probes is
// alive, not lost. The jobs it refuses go back to the shared queue for
// the healthy worker, without costing them an attempt, and the batch
// completes byte-identical to a serial run well before the refusing
// lanes' 30 s pause would end.
func TestCoordinatorSurvivesOverloadedWorker(t *testing.T) {
	cacheDir := t.TempDir()
	addrs, _ := testCluster(t, 1, cacheDir)
	d, err := daemon.New(daemon.Config{Workers: 2, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	inner := d.Handler()
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/batch") {
			w.Header().Set("Retry-After", "30")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(busy.Close)
	addrs = append([]string{busy.URL}, addrs...)
	batch := gridBatch(t)
	want := serialRun(t, batch)

	coord, err := New(Config{Workers: addrs, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	got, err := coord.Run(ctx, batch)
	if err != nil {
		t.Fatalf("cluster run beside an overloaded worker: %v", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("run took %v: it waited on the overloaded worker's Retry-After", el)
	}
	compareResults(t, want, got, "cluster vs serial")

	st := coord.Snapshot()
	if st.Retries < 1 {
		t.Fatalf("overload refusals triggered %d retries, want >= 1", st.Retries)
	}
	if st.Workers[0].Down {
		t.Fatalf("overloaded worker %s marked down", busy.URL)
	}
}

// TestCoordinatorProgressEvents: every job of a batch produces exactly
// one progress event, counted 1..n in order, the cold run's events carry
// an ETA until the last one, and merge hits are flagged FromCache.
func TestCoordinatorProgressEvents(t *testing.T) {
	cacheDir := t.TempDir()
	addrs, _ := testCluster(t, 2, cacheDir)
	batch := gridBatch(t)

	coord, err := New(Config{Workers: addrs, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	var events, cached int
	var cold []jobs.Event
	coord.OnProgress = func(ev jobs.Event) { cold = append(cold, ev) }
	if _, err := coord.Run(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if len(cold) != len(batch) {
		t.Fatalf("first run emitted %d events for %d jobs", len(cold), len(batch))
	}
	withETA := 0
	for i, ev := range cold {
		if ev.Done != i+1 || ev.Total != len(batch) {
			t.Fatalf("event %d: Done %d / Total %d", i, ev.Done, ev.Total)
		}
		if ev.ETA > 0 && i < len(cold)-1 {
			withETA++
		}
	}
	if withETA == 0 {
		t.Fatal("no cold-run event before the last carries an ETA")
	}
	if last := cold[len(cold)-1]; last.ETA != 0 {
		t.Fatalf("final event has ETA %v, want 0", last.ETA)
	}

	coord.OnProgress = func(ev jobs.Event) {
		events++
		if ev.FromCache {
			cached++
		}
	}

	if _, err := coord.Run(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if events != len(batch) || cached != len(batch) {
		t.Fatalf("warm run emitted %d events (%d cached) for %d jobs", events, cached, len(batch))
	}
}

// TestCoordinatorRejectsAnonymousJobs: a job without a stable identity
// (an anonymous factory) can be neither sent to a worker nor merged from
// the cache, so Run fails the batch before dispatching any of it.
func TestCoordinatorRejectsAnonymousJobs(t *testing.T) {
	cacheDir := t.TempDir()
	addrs, _ := testCluster(t, 1, cacheDir)
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	batch := append(gridBatch(t), jobs.Job{Launch: w.Launch, Kernel: w.Kernel, Factory: prosim.PRO()})

	coord, err := New(Config{Workers: addrs, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), batch); err == nil || !strings.Contains(err.Error(), "has no stable identity") {
		t.Fatalf("Run with an anonymous-factory job: err %v, want \"has no stable identity\"", err)
	}
	for _, ws := range coord.Snapshot().Workers {
		if ws.Dispatched != 0 {
			t.Fatalf("%s was dispatched %d jobs, want 0", ws.Addr, ws.Dispatched)
		}
	}
}

func compareResults(t *testing.T, want, got []*stats.KernelResult, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(mustJSON(t, want[i]), mustJSON(t, got[i])) {
			t.Fatalf("%s: result %d differs", what, i)
		}
	}
}
