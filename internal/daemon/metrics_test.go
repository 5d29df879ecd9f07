package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
	// tests in the package contribute), so assert presence, not counts.
	for _, family := range []string{
		"prosimd_batches_total",
		"prosimd_http_requests_total",
		"prosimd_jobs_inflight",
		"prosimd_wire_memo_hits_total",
		"prosimd_wire_memo_misses_total",
		"jobs_completed_total",
		"jobs_simulated_total",
		"jobs_sim_duration_seconds_bucket",
		"resultcache_hits_total",
		"resultcache_front_hits_total",
		"resultcache_written_bytes_total",
		"sim_heartbeats_total",
		"sim_flight_runs_total",
		"sim_flight_events_total",
		"sim_flight_spans_total",
		"sim_flight_event_ring_occupancy_pct",
		"sim_flight_span_ring_occupancy_pct",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(text, `prosimd_http_requests_total{path="/v1/batch"}`) {
		t.Errorf("/metrics missing per-endpoint request series:\n%s", text)
	}
	// The flight-recorder attribution histograms are pre-registered per
	// component at package init, so dashboards see the full label set
	// from daemon start even before any recorded run.
	for _, series := range []string{
		`sim_flight_attr_cycles_bucket{component="dram_queue"`,
		`sim_flight_attr_cycles_bucket{component="total"`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}
}

// TestStatsExtendedCacheFields pins the additive /v1/stats extension:
// byte traffic and GC activity appear alongside the original counters,
// and the original fields keep their meaning (wire compatibility).
func TestStatsExtendedCacheFields(t *testing.T) {
	dir := t.TempDir()
	d, c := newTestDaemon(t, Config{Workers: 2, CacheDir: dir})
	js := quickBatch(t)[:2]
	for i := 0; i < 2; i++ {
		if _, err := c.Run(context.Background(), js); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GC(context.Background(), "0"); err != nil {
		t.Fatal(err)
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
		"cacheGCRuns", "cacheGCEvicted", "cacheGCFreedBytes",
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
	if st.CacheGCRuns != 1 || st.CacheGCEvicted != 2 || st.CacheGCFreedBytes <= 0 {
		t.Fatalf("gc counters after one full eviction: %+v", st)
	}
	if st.CacheBytesWritten < st.CacheGCFreedBytes {
		t.Fatalf("gc freed %d bytes but only %d were written",
			st.CacheGCFreedBytes, st.CacheBytesWritten)
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
