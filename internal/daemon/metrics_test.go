package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// TestMetricsEndpointServesPrometheus is the acceptance test for the
// telemetry tentpole: after real work flows through the daemon, GET
// /metrics must return well-formed Prometheus text exposition covering
// the daemon, job-engine and result-cache metric families.
func TestMetricsEndpointServesPrometheus(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 2, CacheDir: t.TempDir()})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	js := quickBatch(t)[:2]
	// Cold then warm, so cache hit and miss counters both move.
	for i := 0; i < 2; i++ {
		if _, err := c.Run(context.Background(), js); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	obstest.ValidatePrometheus(t, text)

	// One family per instrumented layer. Values are process-global (other
	// tests in the package contribute), so assert presence, not counts;
	// TestEveryMetricFamilyMoves asserts that each family moves.
	for _, family := range []string{
		"prosimd_batches_total",
		"prosimd_jobs_inflight",
		"prosimd_wire_memo_hits_total",
		"prosimd_wire_memo_misses_total",
		"jobs_simulated_total",
		"jobs_sim_duration_seconds_bucket",
		"resultcache_hits_total",
		"resultcache_front_hits_total",
		"resultcache_written_bytes_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(text, `prosimd_http_request_seconds_count{path="/v1/batch"}`) {
		t.Errorf("/metrics missing per-endpoint latency series:\n%s", text)
	}
}

// exposition parses Prometheus text as /metrics serves it into each
// family's samples by series name, in the order of its # TYPE lines.
func exposition(t *testing.T, text string) (families []string, samples map[string]map[string]string) {
	t.Helper()
	samples = make(map[string]map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ := strings.Cut(f, " ")
			families = append(families, family)
			samples[family] = make(map[string]string)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || len(families) == 0 {
			t.Fatalf("unparsable exposition line %q", line)
		}
		samples[families[len(families)-1]][line[:i]] = line[i+1:]
	}
	return families, samples
}

// registry parses the process registry /metrics serves.
func registry(t *testing.T) (families []string, samples map[string]map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return exposition(t, buf.String())
}

// designInventory returns the family names in the first column of
// DESIGN.md §10.3's table, label sets dropped.
func designInventory(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n### 10.3 ")
	if !ok {
		t.Fatal("DESIGN.md has no section 10.3")
	}
	sec, _, _ = strings.Cut(sec, "\n#")
	name := regexp.MustCompile("`([a-z0-9_]+)[^`]*`")
	var names []string
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// freshScrapeEnv, set in the environment of a re-executed test binary,
// names the file TestMetricInventoryMatchesDesign writes a fresh
// daemon's /metrics to.
const freshScrapeEnv = "PROSIM_DAEMON_FRESH_SCRAPE"

// TestMetricInventoryMatchesDesign: every family the daemon's /metrics
// declares has a DESIGN.md §10.3 row saying what question it answers,
// and every row names a family that is served, so the inventory cannot
// drift from the code. The scrape is of a fresh daemon in a process
// where nothing else ran (the test binary re-executed), and it must
// serve each prosimd_rejected_total series at 0: a scrape can tell
// "never refused" from "not instrumented".
func TestMetricInventoryMatchesDesign(t *testing.T) {
	if out := os.Getenv(freshScrapeEnv); out != "" {
		d, _ := newTestDaemon(t, Config{Workers: 1})
		srv := httptest.NewServer(d.Handler())
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "metrics.txt")
	cmd := exec.Command(exe, "-test.run=^TestMetricInventoryMatchesDesign$")
	cmd.Env = append(os.Environ(), freshScrapeEnv+"="+out)
	if log, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("re-executed scrape: %v\n%s", err, log)
	}
	body, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	served, samples := exposition(t, string(body))
	documented := designInventory(t)
	slices.Sort(documented)
	if !slices.Equal(served, documented) {
		t.Fatalf("/metrics serves %d families, DESIGN.md §10.3 lists %d\nserved:     %v\ndocumented: %v",
			len(served), len(documented), served, documented)
	}
	for _, reason := range []string{"draining", "body_size", "batch_size", "queue"} {
		series := obs.Labeled("prosimd_rejected_total", "reason", reason)
		if v, ok := samples["prosimd_rejected_total"][series]; v != "0" {
			t.Errorf("fresh daemon serves %s = %q (present %v), want 0", series, v, ok)
		}
	}
}

// TestEveryMetricFamilyMoves drives one daemon through a deduped slow
// run, cold and warm runs, a failing job, a refused batch and a drain, snapshotting the registry mid-way, and requires every family
// /metrics serves to differ in some snapshot from where it started: a
// family no work can move answers no question.
func TestEveryMetricFamilyMoves(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Workers: 1, CacheDir: dir, MaxBatchJobs: 2, DrainTimeout: time.Minute})
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
	ctx := context.Background()

	_, start := registry(t)
	moved := make(map[string]bool)
	snapshot := func() {
		_, now := registry(t)
		for family, series := range now {
			for name, v := range series {
				if start[family][name] != v {
					moved[family] = true
				}
			}
		}
	}

	// A leader holding the only slot and a follower attached to it: the
	// in-flight, busy and attached gauges.
	slow := slowJob(t)
	leader := submit(c, slow)
	waitFor(t, "the leader to run", func() bool { return d.running.Load() == 1 })
	follower := submit(c, slow)
	waitFor(t, "the follower to attach", func() bool { return d.attached.Load() == 1 })
	snapshot()
	for _, done := range []chan error{leader, follower} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Cold, warm from the file, warm from the decoded front.
	quick := quickBatch(t)[:1]
	for i := 0; i < 3; i++ {
		if _, err := c.Run(ctx, quick); err != nil {
			t.Fatal(err)
		}
	}
	// A job the simulator refuses, and a batch over the job cap.
	bad := quickJob(t, "PRO")
	l2 := *bad.Launch
	l2.SharedMemPerTB = 1 << 40
	bad.Launch = &l2
	if _, err := c.Run(ctx, []jobs.Job{bad}); err == nil {
		t.Fatal("a launch over the SM's shared memory ran")
	}
	if _, err := c.Run(ctx, quickBatch(t)[:3]); err == nil {
		t.Fatal("a batch over the job cap ran")
	}
	snapshot()

	// Drain while a job runs: the draining gauge.
	running := submit(c, slowJobSched(t, "GTO"))
	waitFor(t, "the job to run", func() bool { return d.running.Load() == 1 })
	shutdown := make(chan error, 1)
	go func() { shutdown <- d.Shutdown() }()
	waitFor(t, "the drain to start", func() bool { return mDraining.Value() == 1 })
	snapshot()
	for _, done := range []chan error{running, shutdown, serveDone} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	served, _ := registry(t)
	for _, family := range served {
		if !moved[family] {
			t.Errorf("%s did not move", family)
		}
	}
}

// TestStatsExtendedCacheFields pins the additive /v1/stats extension:
// byte traffic appears alongside the original counters, and the
// original fields keep their meaning (wire compatibility).
func TestStatsExtendedCacheFields(t *testing.T) {
	dir := t.TempDir()
	d, c := newTestDaemon(t, Config{Workers: 2, CacheDir: dir})
	js := quickBatch(t)[:2]
	for i := 0; i < 2; i++ {
		if _, err := c.Run(context.Background(), js); err != nil {
			t.Fatal(err)
		}
	}

	// Decode through a raw map as an old client would: the original keys
	// must still be present with their original spellings.
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"completed", "simulated", "replayed", "cacheDir",
		"cacheHits", "cacheMisses", "cacheWrites",
		"cacheBytesRead", "cacheBytesWritten",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/v1/stats missing key %q", key)
		}
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 4 || st.Simulated != 2 || st.Replayed != 2 {
		t.Fatalf("engine counters: %+v", st)
	}
	if st.CacheBytesWritten <= 0 || st.CacheBytesRead <= 0 {
		t.Fatalf("cache byte counters did not move: %+v", st)
	}
}

// TestStreamClientDisconnectMidBatch pins the daemon's survival of a
// client that drops the NDJSON stream mid-batch: the handler must not
// wedge, and because leaders run under the daemon's context, work the
// disconnected client started still completes (the cache stays warm for
// the next submission).
func TestStreamClientDisconnectMidBatch(t *testing.T) {
	d, _ := newTestDaemon(t, Config{Workers: 1})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Workers:1 serializes the batch, so after the first job event the
	// remaining jobs are still queued or running when we disconnect.
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

	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		t.Fatalf("stream ended before the first event: %v", sc.Err())
	}
	var first Event
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first stream line: %v", err)
	}
	if first.Type != "job" || first.Seq != 1 {
		t.Fatalf("first event: %+v", first)
	}
	cancel() // drop the connection mid-stream

	// The in-flight leader finishes under the daemon's own context; jobs
	// not yet dispatched are abandoned (their submission context is
	// gone), but the daemon itself must wind the batch down and stay
	// healthy. Wait for the in-flight gauge to drain.
	deadline := time.Now().Add(30 * time.Second)
	for d.running.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := d.running.Load(); got != 0 {
		t.Fatalf("%d jobs still marked in-flight long after disconnect", got)
	}
	if got := d.Engine().Completed(); got < 1 {
		t.Fatalf("leader abandoned on client disconnect: %d completed", got)
	}

	// A fresh client gets full service afterwards.
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Run(context.Background(), js[:1])
	if err != nil {
		t.Fatalf("daemon unhealthy after client disconnect: %v", err)
	}
	if rs[0].Cycles <= 0 {
		t.Fatalf("bad result after disconnect: %+v", rs[0])
	}
}
