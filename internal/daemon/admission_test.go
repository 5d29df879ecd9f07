// Admission tests: admission control (429/413 + Retry-After), priority
// classes, the routes the daemon serves, wire compatibility with the
// daemons that had tenancy and a shared cache tier, and the singleflight
// and fan-out bugfixes that rode along.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// slowJobSched is slowJob with a chosen scheduler, so tests can mint
// several slow jobs with distinct cache identities.
func slowJobSched(t *testing.T, sched string) jobs.Job {
	t.Helper()
	j := slowJob(t)
	j.Scheduler = sched
	return j
}

// quickJob is one fast job (well under a second even under the race
// detector).
func quickJob(t *testing.T, sched string) jobs.Job {
	t.Helper()
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	js := jobs.Grid([]*workloads.Workload{w}, []string{sched}, 8, gpu.Options{})
	if len(js) != 1 {
		t.Fatalf("grid of one kernel and one scheduler built %d jobs", len(js))
	}
	return js[0]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// batchBody marshals jobs into a BatchRequest body with a batch-level
// priority, as Client.Run does, each wire job passed through edit (which
// may be nil) with its index.
func batchBody(t testing.TB, js []jobs.Job, priority string, edit func(int, *WireJob)) []byte {
	t.Helper()
	req := BatchRequest{Jobs: make([]WireJob, len(js)), Priority: priority}
	for i := range js {
		wj, err := FromJob(&js[i])
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(i, &wj)
		}
		req.Jobs[i] = wj
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// keyedJob is what decodeJob would hand runJob for j's wire form.
func keyedJob(d *Daemon, j jobs.Job) *memoJob {
	mj := &memoJob{job: j}
	mj.key, _, mj.keyErr = d.eng.Key(&mj.job)
	return mj
}

// TestLeaderDisconnectDuringSlotWaitDoesNotPoisonFollowers is the
// regression test for the context-poisoning bug: a leader that
// registered a flight but was still waiting for a worker slot used to
// wait on its own request context, so its client disconnecting
// resolved the shared flight with context.Canceled and every attached
// follower received the leader's error instead of a result.
func TestLeaderDisconnectDuringSlotWaitDoesNotPoisonFollowers(t *testing.T) {
	d, _ := newTestDaemon(t, Config{Workers: 1})

	// Occupy the only worker slot so the leader has to queue.
	blocker := slowJobSched(t, "GTO")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.runJob(context.Background(), keyedJob(d, blocker), classInteractive)
	}()
	waitFor(t, "blocker to hold the slot", func() bool { return d.running.Load() == 1 })

	shared := slowJobSched(t, "PRO")
	key, ok, err := d.eng.Key(&shared)
	if err != nil || !ok {
		t.Fatalf("shared job has no stable key: ok=%v err=%v", ok, err)
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, _, err := d.runJob(leaderCtx, keyedJob(d, shared), classInteractive)
		leaderErr <- err
	}()
	waitFor(t, "leader to register its flight", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.inflight[key] != nil
	})

	var followerRes *stats.KernelResult
	followerErr := make(chan error, 1)
	go func() {
		r, _, _, err := d.runJob(context.Background(), keyedJob(d, shared), classInteractive)
		followerRes = r
		followerErr <- err
	}()
	waitFor(t, "follower to attach", func() bool { return d.attached.Load() == 1 })

	// The leader's client walks away while the leader still queues for
	// a slot. The flight must run to completion regardless.
	cancelLeader()
	if err := <-followerErr; err != nil {
		t.Fatalf("leader's disconnect poisoned the attached follower: %v", err)
	}
	if followerRes == nil {
		t.Fatal("follower completed without a result")
	}
	if err := <-leaderErr; err != nil {
		// The leader itself also finishes: its run was already communal.
		t.Fatalf("leader errored despite running under the daemon context: %v", err)
	}
	wg.Wait()
}

// TestFullQueueFastFailsWith429: once a class's pending queue is full,
// further batches are rejected immediately with 429 and a Retry-After
// hint instead of being absorbed without bound.
func TestFullQueueFastFailsWith429(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 1, QueueDepth: 2})

	var wg sync.WaitGroup
	for _, s := range []string{"PRO", "GTO", "LRR"} {
		j := slowJobSched(t, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Run(context.Background(), []jobs.Job{j})
		}()
	}
	// One job running, two queued: the interactive queue is exactly full.
	waitFor(t, "queue to fill", func() bool {
		qi, _ := d.disp.depths()
		return d.running.Load() == 1 && qi == 2
	})

	body := batchBody(t, []jobs.Job{slowJobSched(t, "TL")}, "", nil)
	resp, err := http.Post(c.base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch against a full queue: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response carries no Retry-After header")
	}
	if d.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
	wg.Wait()
}

// TestOversizeBatchRejectedWith413: the per-request job cap fails fast
// before any conversion or admission work.
func TestOversizeBatchRejectedWith413(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 1, MaxBatchJobs: 2})
	js := []jobs.Job{quickJob(t, "LRR"), quickJob(t, "GTO"), quickJob(t, "TL")}
	resp, err := http.Post(c.base+"/v1/batch", "application/json", bytes.NewReader(batchBody(t, js, "", nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("3-job batch against a 2-job cap: status %d, want 413", resp.StatusCode)
	}
}

// TestOversizeBodyRejected: the body is capped (maxJobBytes per job the
// batch may carry) before it is parsed, so a client cannot make the
// daemon buffer an unbounded request; the refusal is a counted 413 like
// the job-count cap's. A body just under the cap is parsed as usual.
func TestOversizeBodyRejected(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 1, MaxBatchJobs: 2})
	padded := func(n int) []byte {
		return []byte(`{"jobs":[{"scheduler":"PRO","kernel":"` + strings.Repeat("a", n) + `"}]}`)
	}
	refusals := obs.NewCounter(obs.Labeled("prosimd_rejected_total", "reason", "body_size"), "")
	before, counted := d.rejected.Load(), refusals.Value()
	resp, err := http.Post(c.base+"/v1/batch", "application/json", bytes.NewReader(padded(2*maxJobBytes)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "body exceeds") {
		t.Fatalf("body over the cap: status %d (%s), want 413", resp.StatusCode, msg)
	}
	if got := d.rejected.Load() - before; got != 1 || refusals.Value()-counted != 1 {
		t.Fatalf("oversize body counted %d refusals (%d by reason), want 1 and 1", got, refusals.Value()-counted)
	}
	resp, err = http.Post(c.base+"/v1/batch", "application/json", bytes.NewReader(padded(2*maxJobBytes-100)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "no launch") {
		t.Fatalf("body under the cap: status %d (%s), want the job's own 400", resp.StatusCode, msg)
	}
	if len(d.memo) != 0 {
		t.Fatalf("a job that failed to decode entered the memo (%d entries)", len(d.memo))
	}
}

// TestBulkFloodDoesNotStarveInteractive: with one worker slot fully
// saturated by a bulk batch, a later interactive batch must still
// complete (without any 5xx) while bulk work remains queued — the
// weighted dispatcher grants the freed slot to the interactive class
// first.
func TestBulkFloodDoesNotStarveInteractive(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 1})

	bulkC := NewClient(c.Addr())
	bulkC.Priority = PriorityBulk
	bulkJobs := []jobs.Job{
		slowJobSched(t, "PRO"), slowJobSched(t, "GTO"),
		slowJobSched(t, "LRR"), slowJobSched(t, "TL"),
	}
	var bulkFinished atomic.Bool
	bulkErr := make(chan error, 1)
	go func() {
		_, err := bulkC.Run(context.Background(), bulkJobs)
		bulkFinished.Store(true)
		bulkErr <- err
	}()
	waitFor(t, "bulk flood to saturate the daemon", func() bool {
		_, qb := d.disp.depths()
		return d.running.Load() == 1 && qb == len(bulkJobs)-1
	})

	ic := NewClient(c.Addr()) // empty Priority = interactive
	rs, err := ic.Run(context.Background(), []jobs.Job{quickJob(t, "PRO")})
	if err != nil {
		t.Fatalf("interactive batch failed under bulk saturation: %v", err)
	}
	if len(rs) != 1 || rs[0] == nil {
		t.Fatalf("interactive batch returned %d results", len(rs))
	}
	if bulkFinished.Load() {
		t.Fatal("bulk flood drained before the interactive batch returned — the test exerted no contention")
	}
	if _, qb := d.disp.depths(); qb == 0 {
		t.Fatal("no bulk work left queued when the interactive batch completed — priority was not exercised")
	}
	if err := <-bulkErr; err != nil {
		t.Fatalf("bulk batch failed: %v", err)
	}
}

// TestLargeBatchBoundedGoroutines is the fan-out regression test: a
// batch used to spawn one goroutine per job, so a 500-job batch meant
// 500 concurrent stacks. The bounded submission pool must keep the
// process's goroutine count flat while still finishing the batch (and,
// with a cache, still simulating the deduped job exactly once).
func TestLargeBatchBoundedGoroutines(t *testing.T) {
	const n = 500
	d, c := newTestDaemon(t, Config{Workers: 4, CacheDir: t.TempDir(), QueueDepth: 2 * n})
	js := make([]jobs.Job, n)
	for i := range js {
		js[i] = quickJob(t, "PRO")
	}

	done := make(chan error, 1)
	go func() {
		rs, err := c.Run(context.Background(), js)
		if err == nil && len(rs) != n {
			err = fmt.Errorf("got %d results for %d jobs", len(rs), n)
		}
		done <- err
	}()
	peak := 0
	for {
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if peak > 300 {
				t.Fatalf("peak goroutine count %d during a %d-job batch — fan-out is unbounded again", peak, n)
			}
			if got := d.Engine().Simulated(); got != 1 {
				t.Fatalf("identical cached jobs simulated %d times, want 1", got)
			}
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestHandlerServesOnlyDocumentedRoutes: the daemon answers its four
// documented routes and nothing else — no result-cache object store
// under /cache/, no cache-GC endpoint and no expvar view — so a forged
// envelope PUT by anyone who can reach the port never becomes an
// answer: the job it names is simulated.
func TestHandlerServesOnlyDocumentedRoutes(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 1, CacheDir: t.TempDir()})
	j := quickJob(t, "GTO")
	key, ok, err := d.eng.Key(&j)
	if err != nil || !ok {
		t.Fatalf("job has no stable key: ok=%v err=%v", ok, err)
	}
	forged, err := json.Marshal(map[string]any{
		"schema": resultcache.SchemaVersion, "key": key,
		"result": stats.KernelResult{Kernel: j.Label(), Scheduler: "GTO", Cycles: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/batch", `{"jobs":[]}`, http.StatusOK},
		{http.MethodGet, "/v1/stats", "", http.StatusOK},
		{http.MethodGet, "/v1/health", "", http.StatusOK},
		{http.MethodPost, "/v1/gc", `{"size":"0"}`, http.StatusNotFound},
		{http.MethodGet, "/metrics", "", http.StatusOK},
		{http.MethodGet, "/cache/" + key, "", http.StatusNotFound},
		{http.MethodPut, "/cache/" + key, string(forged), http.StatusNotFound},
		{http.MethodGet, "/debug/vars", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, c.base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}

	rs, err := c.Run(context.Background(), []jobs.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&jobs.Engine{Workers: 1}).Run(context.Background(), []jobs.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Cycles == 1 || rs[0].Cycles != want[0].Cycles || d.Engine().Simulated() != 1 {
		t.Fatalf("after a forged PUT the daemon served %d cycles (simulated %d), want the simulated %d",
			rs[0].Cycles, d.Engine().Simulated(), want[0].Cycles)
	}
}

// TestStatsAndHealthRejectWrites: the read-only endpoints must refuse
// non-GET methods instead of silently executing them.
func TestStatsAndHealthRejectWrites(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 1})
	for _, path := range []string{"/v1/stats", "/v1/health"} {
		resp, err := http.Post(c.base+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestListenRefusesLiveSocketReclaimsStale is the socket-takeover
// regression test: Listen used to os.Remove the socket path
// unconditionally, silently unbinding a live daemon. Now a live socket
// is an error and only a dead path is reclaimed.
func TestListenRefusesLiveSocketReclaimsStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.sock")
	l, err := Listen("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Listen("unix:" + path); err == nil {
		t.Fatal("second Listen took over a live daemon's socket")
	} else if !strings.Contains(err.Error(), "in use") {
		t.Fatalf("live-socket error does not say so: %v", err)
	}
	l.Close()

	// A stale leftover (no listener behind it) is reclaimed.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Listen("unix:" + path)
	if err != nil {
		t.Fatalf("Listen did not reclaim a stale socket path: %v", err)
	}
	l2.Close()
}

// TestClientSurfacesOverloadAsTypedError: 429/503 responses become
// OverloadedError with the server's Retry-After — never a
// TransportError, which would make a coordinator mark a healthy,
// load-shedding worker as lost.
func TestClientSurfacesOverloadAsTypedError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "interactive queue is full", http.StatusTooManyRequests)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	_, err := c.Run(context.Background(), []jobs.Job{quickJob(t, "LRR")})
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("429 did not surface as OverloadedError: %v", err)
	}
	if oe.Status != http.StatusTooManyRequests || oe.RetryAfter != 7*time.Second {
		t.Fatalf("overload mis-parsed: status=%d retryAfter=%s", oe.Status, oe.RetryAfter)
	}
	var te *TransportError
	if errors.As(err, &te) {
		t.Fatal("overload also matches TransportError — the coordinator would mark the worker lost")
	}
}

// TestDispatcherWeightedFairness exercises the dispatcher directly:
// with both classes saturated, grants follow the configured
// interactive:bulk ratio, and abandoned waiters are skipped.
func TestDispatcherWeightedFairness(t *testing.T) {
	disp := newTestDispatcherSaturated(t, 2)
	var order []class
	var mu sync.Mutex
	var wg sync.WaitGroup
	enqueue := func(cl class, k int) {
		for i := 0; i < k; i++ {
			disp.admit(cl, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := disp.acquire(context.Background(), cl); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, cl)
				mu.Unlock()
				disp.release()
			}()
		}
	}
	enqueue(classBulk, 4)
	waitFor(t, "bulk waiters to park", func() bool {
		disp.mu.Lock()
		defer disp.mu.Unlock()
		return len(disp.waiters[classBulk]) == 4
	})
	enqueue(classInteractive, 4)
	waitFor(t, "interactive waiters to park", func() bool {
		disp.mu.Lock()
		defer disp.mu.Unlock()
		return len(disp.waiters[classInteractive]) == 4
	})

	disp.release() // hand back the one held slot; grants cascade
	wg.Wait()
	// Weight 2: the first three grants must be interactive, interactive,
	// bulk — bulk is delayed but never starved.
	if len(order) != 8 {
		t.Fatalf("served %d waiters, want 8", len(order))
	}
	want := []class{classInteractive, classInteractive, classBulk}
	for i, cl := range want {
		if order[i] != cl {
			t.Fatalf("grant order %v, want prefix %v", order, want)
		}
	}
}

// newTestDispatcherSaturated builds a 1-slot dispatcher with the slot
// already taken, so every subsequent acquire parks.
func newTestDispatcherSaturated(t *testing.T, weight int) *dispatcher {
	t.Helper()
	disp := newDispatcher(1, 64, weight)
	if err := disp.acquire(context.Background(), classInteractive); err != nil {
		t.Fatal(err)
	}
	return disp
}

// TestStatsWireCompatMultiTenantFields pins the additive-fields
// contract across the removal of tenancy, the shared cache tier and
// cache GC: a payload from a daemon that still sends "tenants",
// "cacheRemote", "l2*" and "cacheGC*" decodes with every surviving field
// intact, a legacy payload
// leaves the admission fields zero, this daemon's /v1/stats carries none
// of the removed fields, and a request still sending the old tenant
// header is served exactly as one without it.
func TestStatsWireCompatMultiTenantFields(t *testing.T) {
	older := `{"completed":1,"simulated":1,"cacheHits":4,"workers":2,
		"queueInteractive":3,"queueBulk":4,"rejected":5,"tenants":2,
		"cacheRemote":"http://peer:9753/cache","l2Hits":6,"l2Misses":7,"l2Degraded":8,
		"cacheBytesRead":9,"cacheBytesWritten":10,
		"cacheGCRuns":1,"cacheGCEvicted":2,"cacheGCFreedBytes":1024}`
	var st Stats
	if err := json.Unmarshal([]byte(older), &st); err != nil {
		t.Fatal(err)
	}
	want := Stats{Completed: 1, Simulated: 1, CacheHits: 4, Workers: 2,
		CacheBytesRead: 9, CacheBytesWritten: 10,
		QueueInteractive: 3, QueueBulk: 4, Rejected: 5}
	if st != want {
		t.Fatalf("older daemon's stats payload decoded as %+v, want %+v", st, want)
	}

	legacy := `{"completed":7,"simulated":3,"workers":4}`
	st = Stats{}
	if err := json.Unmarshal([]byte(legacy), &st); err != nil {
		t.Fatal(err)
	}
	if st.QueueInteractive != 0 || st.QueueBulk != 0 || st.Rejected != 0 {
		t.Fatalf("legacy stats payload fabricated admission fields: %+v", st)
	}

	_, c := newTestDaemon(t, Config{Workers: 1, CacheDir: t.TempDir()})
	body := batchBody(t, []jobs.Job{quickJob(t, "LRR")}, "", nil)
	postBatch(t, c.base, body) // simulate once; both requests below hit
	code, plain := postBatch(t, c.base, body)
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Prosim-Token", "no-longer-checked")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tokened, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || resp.StatusCode != code ||
		!slices.Equal(canonNDJSON(plain), canonNDJSON(tokened)) {
		t.Fatalf("with the old tenant header: %d\n%s\nwithout: %d\n%s", resp.StatusCode, tokened, code, plain)
	}
	resp, err = http.Get(c.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&fields)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"tenants", "cacheRemote", "l2Hits", "l2Misses", "l2Degraded",
		"cacheGCRuns", "cacheGCEvicted", "cacheGCFreedBytes"} {
		if _, ok := fields[gone]; ok {
			t.Errorf("/v1/stats still emits the removed field %q", gone)
		}
	}
	if string(fields["batches"]) != "3" {
		t.Errorf("/v1/stats batches = %s, want 3", fields["batches"])
	}

	var h Health
	if err := json.Unmarshal([]byte(`{"status":"ok","workers":1,"queueDepth":9}`), &h); err != nil {
		t.Fatal(err)
	}
	if h.QueueDepth != 9 {
		t.Fatalf("health queueDepth mangled: %+v", h)
	}
	h = Health{}
	if err := json.Unmarshal([]byte(`{"status":"ok","workers":1}`), &h); err != nil {
		t.Fatal(err)
	}
	if h.QueueDepth != 0 {
		t.Fatalf("legacy health payload fabricated queueDepth: %+v", h)
	}

	// A priority-less batch request (old client) decodes to the empty
	// string, which parses as interactive — the legacy behaviour.
	var br BatchRequest
	if err := json.Unmarshal([]byte(`{"jobs":[]}`), &br); err != nil {
		t.Fatal(err)
	}
	if cl, err := parseClass(br.Priority); err != nil || cl != classInteractive {
		t.Fatalf("legacy batch priority parsed as %v (%v), want interactive", cl, err)
	}
}
