package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/jobs/jobstest"
	"repro/internal/schedreg"
	"repro/internal/workloads"
)

// newTestDaemon builds a daemon and serves its handler over httptest.
func newTestDaemon(t *testing.T, cfg Config) (*Daemon, *Client) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return d, c
}

// slowFloor is the least host time slowJob simulates for: two orders
// of magnitude above a loopback round trip, so a request sent once the
// job is observed running (waitFor) reliably lands mid-run, and well
// above the 50 ms budget TestJobTimeoutAbortsRun must overrun — yet
// short enough that a graceful drain finishes well inside its timeout.
const slowFloor = 250 * time.Millisecond

// slowJob is a job measured to simulate for at least slowFloor on this
// host and build. Tests that need "while it runs" synchronise on daemon
// state with waitFor; the floor only has to cover the request latency
// after that observation.
func slowJob(t *testing.T) jobs.Job {
	t.Helper()
	return jobstest.SlowJob(slowFloor)
}

// quickBatch is a small grid that simulates in well under a second.
func quickBatch(t testing.TB) []jobs.Job {
	t.Helper()
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	return jobs.Grid([]*workloads.Workload{w}, []string{"LRR", "GTO", "TL", "PRO"}, 8, gpu.Options{})
}

func TestConcurrentDuplicateSubmissionsSimulateOnce(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 2})
	j := slowJob(t)

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 1 {
				// The second client submits once the first one's job
				// is running, so it arrives mid-run.
				waitFor(t, "the leader to run", func() bool { return d.running.Load() == 1 })
			}
			rs, err := c.Run(context.Background(), []jobs.Job{j})
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = json.Marshal(rs[0])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("deduped submission returned a different result")
	}
	if got := d.Engine().Simulated(); got != 1 {
		t.Fatalf("identical concurrent submissions simulated %d times, want exactly 1", got)
	}
	if got := d.Engine().Completed(); got != 1 {
		t.Fatalf("engine completed %d jobs, want 1 (the attach must not re-run)", got)
	}
}

func TestBatchStreamIsWellFormedNDJSON(t *testing.T) {
	d, _ := newTestDaemon(t, Config{Workers: 4})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	js := quickBatch(t)
	req := BatchRequest{Jobs: make([]WireJob, len(js))}
	for i := range js {
		wj, err := FromJob(&js[i])
		if err != nil {
			t.Fatal(err)
		}
		req.Jobs[i] = wj
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			t.Fatal("blank line in NDJSON stream")
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("unparseable stream line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) != len(js)+1 {
		t.Fatalf("%d stream lines for %d jobs, want %d", len(events), len(js), len(js)+1)
	}
	seen := make(map[int]bool)
	for i, ev := range events[:len(js)] {
		if ev.Type != "job" {
			t.Fatalf("line %d type %q, want job", i, ev.Type)
		}
		if ev.Seq != i+1 || ev.Done != i+1 || ev.Total != len(js) {
			t.Fatalf("line %d: seq %d done %d total %d", i, ev.Seq, ev.Done, ev.Total)
		}
		if ev.Index < 0 || ev.Index >= len(js) || seen[ev.Index] {
			t.Fatalf("line %d: bad or repeated job index %d", i, ev.Index)
		}
		seen[ev.Index] = true
		if ev.Err != "" {
			t.Fatalf("job %d failed: %s", ev.Index, ev.Err)
		}
	}
	final := events[len(js)]
	if final.Type != "batch" {
		t.Fatalf("final line type %q, want batch", final.Type)
	}
	if len(final.Results) != len(js) {
		t.Fatalf("%d results for %d jobs", len(final.Results), len(js))
	}
	for i, jr := range final.Results {
		if jr.Err != "" || jr.Result == nil || jr.Result.Cycles <= 0 {
			t.Fatalf("result %d: %+v", i, jr)
		}
		if jr.Result.Scheduler != js[i].Scheduler {
			t.Fatalf("result %d is for scheduler %q, want %q (job order lost)",
				i, jr.Result.Scheduler, js[i].Scheduler)
		}
	}
}

func TestUnixSocketTransport(t *testing.T) {
	d, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "prosimd.sock")
	l, err := Listen("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve(l) }()

	c, err := Dial("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	js := quickBatch(t)[:2]
	rs, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Cycles <= 0 || rs[1].Cycles <= 0 {
		t.Fatalf("bad results over unix socket: %+v", rs)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestGracefulShutdownDrainsRunningBatch(t *testing.T) {
	d, err := New(Config{Workers: 2, DrainTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	type out struct {
		cycles int64
		err    error
	}
	got := make(chan out, 1)
	go func() {
		rs, err := c.Run(context.Background(), []jobs.Job{slowJob(t)})
		if err != nil {
			got <- out{err: err}
			return
		}
		got <- out{cycles: rs[0].Cycles}
	}()
	// Let the job reach the engine, then shut down mid-run.
	waitFor(t, "the job to run", func() bool { return d.running.Load() == 1 })
	if err := d.Shutdown(); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	o := <-got
	if o.err != nil {
		t.Fatalf("batch aborted by graceful shutdown: %v", o.err)
	}
	if o.cycles <= 0 {
		t.Fatal("drained batch lost its result")
	}
}

func TestJobTimeoutAbortsRun(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 1, JobTimeout: 50 * time.Millisecond})
	_, err := c.Run(context.Background(), []jobs.Job{slowJob(t)})
	if err == nil {
		t.Fatal("over-budget job completed")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error does not name the deadline: %v", err)
	}
}

// submit runs js through c in the background; the channel carries
// Run's error.
func submit(c *Client, js ...jobs.Job) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), js)
		done <- err
	}()
	return done
}

// queueBehindSlowJob fills d's only worker slot with a slow job and
// parks a distinct quick job in the slot wait behind it. The returned
// channels carry each submission's error.
func queueBehindSlowJob(t *testing.T, d *Daemon, c *Client) (running, queued chan error) {
	t.Helper()
	running = submit(c, slowJob(t))
	waitFor(t, "the slow job to hold the slot", func() bool { return d.running.Load() == 1 })
	queued = submit(c, quickJob(t, "LRR"))
	waitFor(t, "the second job to wait for a slot", func() bool { return waiting(d) == 1 })
	return running, queued
}

// TestInFlightCountsSlotHolders: InFlight counts jobs holding a worker
// slot, and a job waiting for one is counted in the queue depth instead.
func TestInFlightCountsSlotHolders(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 1})
	running, queued := queueBehindSlowJob(t, d, c)
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 1 || h.InFlight != 1 || h.QueueDepth != 1 || mInflight.Value() != 1 {
		t.Fatalf("one job running and one queued: stats InFlight %d, health InFlight %d QueueDepth %d, prosimd_jobs_inflight %d; want 1 each",
			st.InFlight, h.InFlight, h.QueueDepth, mInflight.Value())
	}
	for _, done := range []chan error{running, queued} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShutdownFailsQueuedLeaderWithOneError: a leader still waiting for
// a slot when the daemon shuts down always fails with one error, a
// TransportError naming the job pending: the daemon's shutdown ended it,
// so it is lost work a coordinator requeues, not a job that ran and
// failed. Its slot wait used to select on the daemon's context twice, so
// the error was a bare context.Canceled about half the time; the
// repetitions make a coin flip fail.
func TestShutdownFailsQueuedLeaderWithOneError(t *testing.T) {
	for i := 0; i < 20; i++ {
		d, c := newTestDaemon(t, Config{Workers: 1})
		running, queued := queueBehindSlowJob(t, d, c)
		if err := d.Shutdown(); err != nil {
			t.Fatal(err)
		}
		var te *TransportError
		if err := <-queued; !errors.As(err, &te) || len(te.Pending) != 1 {
			t.Fatalf("repetition %d: queued leader's error %v, want a TransportError naming it pending", i, err)
		}
		<-running // aborted too
	}
}

// TestStatsCountColdAndWarmBatches: a cold batch simulates and writes
// each job, the same batch again replays each from the cache, and
// /v1/stats counts both.
func TestStatsCountColdAndWarmBatches(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestDaemon(t, Config{Workers: 2, CacheDir: dir})
	js := quickBatch(t)[:2]
	if _, err := c.Run(context.Background(), js); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), js); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 4 || st.Simulated != 2 || st.Replayed != 2 {
		t.Fatalf("stats after cold+warm batch: %+v", st)
	}
	if st.CacheWrites != 2 || st.CacheHits != 2 || st.CacheDir != dir {
		t.Fatalf("cache stats: %+v", st)
	}
	if st.Batches != 2 || st.Workers != 2 {
		t.Fatalf("batch/worker counters: %+v", st)
	}
}

func TestClientProgressEvents(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 2})
	var mu sync.Mutex
	var events []jobs.Event
	c.Progress = func(ev jobs.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	js := quickBatch(t)
	if _, err := c.Run(context.Background(), js); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(js) {
		t.Fatalf("%d progress events for %d jobs", len(events), len(js))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(js) {
			t.Fatalf("event %d: done %d total %d", i, ev.Done, ev.Total)
		}
	}
}

func TestBadBatchRejected(t *testing.T) {
	d, _ := newTestDaemon(t, Config{Workers: 1})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for _, body := range []string{
		"{not json",
		`{"jobs":[{"scheduler":"PRO"}]}`, // no launch
	} {
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %s, want 400", body, resp.Status)
		}
	}
}

// TestSchedulerSpecRunsLocallyAsThroughDaemon sends a parameterized
// scheduler spec as Job.Scheduler to a local engine and to an in-process
// daemon: both must accept it, key it alike and return the same bytes.
func TestSchedulerSpecRunsLocallyAsThroughDaemon(t *testing.T) {
	w, err := workloads.ByKernel("scalarProdGPU")
	if err != nil {
		t.Fatal(err)
	}
	j := jobs.Job{Launch: w.Shrunk(8).Launch, Kernel: w.Kernel, Scheduler: "PRO+threshold=500"}

	local, err := (&jobs.Engine{}).RunOne(context.Background(), j)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	d, c := newTestDaemon(t, Config{Workers: 1})
	remote, err := c.Run(context.Background(), []jobs.Job{j})
	if err != nil {
		t.Fatalf("daemon run: %v", err)
	}
	a, _ := json.Marshal(local)
	b, _ := json.Marshal(remote[0])
	if !bytes.Equal(a, b) {
		t.Fatal("the daemon's result differs from the local run's")
	}

	localKey, ok, err := jobs.Key(&j)
	if err != nil || !ok {
		t.Fatalf("local key: %v ok=%v", err, ok)
	}
	wj, err := FromJob(&j)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(wj)
	if err != nil {
		t.Fatal(err)
	}
	mj, err := d.decodeJob(raw)
	if err != nil {
		t.Fatal(err)
	}
	if mj.keyErr != nil || mj.key != localKey {
		t.Fatalf("daemon key %q (%v), local key %q", mj.key, mj.keyErr, localKey)
	}
}

func TestWireJobRoundTripKeysMatch(t *testing.T) {
	eng := &jobs.Engine{}
	js := quickBatch(t)
	// Add a parameterized-factory job: the spec must survive the round
	// trip as the cache identity.
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	f, err := schedreg.Resolve("PRO+threshold=500")
	if err != nil {
		t.Fatal(err)
	}
	js = append(js, jobs.Job{
		Launch:     w.Shrunk(8).Launch,
		Kernel:     w.Kernel,
		Factory:    f,
		FactoryKey: "PRO+threshold=500",
	})

	for i := range js {
		local, ok, err := eng.Key(&js[i])
		if err != nil || !ok {
			t.Fatalf("job %d: local key: %v ok=%v", i, err, ok)
		}
		wj, err := FromJob(&js[i])
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(wj)
		if err != nil {
			t.Fatal(err)
		}
		var back WireJob
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		rj, err := back.Job()
		if err != nil {
			t.Fatal(err)
		}
		remote, ok, err := eng.Key(&rj)
		if err != nil || !ok {
			t.Fatalf("job %d: remote key: %v ok=%v", i, err, ok)
		}
		if remote != local {
			t.Fatalf("job %d: wire round trip changed the cache key\nlocal  %s\nremote %s",
				i, local, remote)
		}
	}
}
