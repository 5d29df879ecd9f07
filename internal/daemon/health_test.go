package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobs"
)

func TestHealthEndpoint(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 3})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining {
		t.Fatalf("fresh daemon reports status=%q draining=%v", h.Status, h.Draining)
	}
	if h.Workers != 3 {
		t.Fatalf("health reports %d workers, want 3", h.Workers)
	}
	if h.UptimeSec < 0 {
		t.Fatalf("negative uptime %v", h.UptimeSec)
	}

	// Once a shutdown begins the probe flips to draining so pollers
	// stop routing work here.
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("post-shutdown probe reports status=%q draining=%v", h.Status, h.Draining)
	}
}

// TestStatsWireCompat: payloads from daemons that predate the draining
// field must decode with it zero — additive fields never break old
// pairings in either direction.
func TestStatsWireCompat(t *testing.T) {
	legacy := `{"completed":7,"simulated":3,"replayed":4,"cacheHits":2,
		"cacheMisses":1,"cacheWrites":1,"inFlight":0,"uptimeSec":12.5,"workers":4}`
	var st Stats
	if err := json.Unmarshal([]byte(legacy), &st); err != nil {
		t.Fatal(err)
	}
	if st.Draining {
		t.Fatal("legacy payload without draining decoded as draining")
	}
	if st.Completed != 7 || st.Workers != 4 {
		t.Fatalf("legacy fields mangled: %+v", st)
	}

	// And the new payload must still carry every legacy field under its
	// old name, so old clients keep working against new daemons.
	_, c := newTestDaemon(t, Config{Workers: 2})
	resp, err := http.Get(c.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"completed", "simulated", "replayed", "inFlight", "uptimeSec", "workers"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("stats payload lost legacy field %q", field)
		}
	}
}

// TestRunWrapsMidStreamDisconnect: a worker dying mid-batch must
// surface as a TransportError naming the worker and the unresolved
// jobs, not as a bare decode error — the coordinator's retry logic
// keys off that type.
func TestRunWrapsMidStreamDisconnect(t *testing.T) {
	d, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	j := slowJob(t)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), []jobs.Job{j})
		errc <- err
	}()
	// Let the submit land and the job start (the stream opens before
	// admission), then sever every connection while it still runs.
	waitFor(t, "the job to run", func() bool { return d.running.Load() == 1 })
	srv.CloseClientConnections()

	err = <-errc
	if err == nil {
		t.Fatal("mid-stream disconnect returned no error")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("mid-stream disconnect not a TransportError: %v", err)
	}
	if te.Addr != srv.URL {
		t.Fatalf("TransportError names worker %q, want %q", te.Addr, srv.URL)
	}
	if len(te.Pending) != 1 {
		t.Fatalf("TransportError names %d pending jobs, want 1: %v", len(te.Pending), te.Pending)
	}
	if !strings.Contains(err.Error(), srv.URL) {
		t.Fatalf("error text %q does not name the worker", err)
	}
}

// TestRunKeepsJobErrorsBare: a job that ran and failed is a
// deterministic failure, not a transport loss — it must NOT come back
// as a TransportError or a retrying coordinator would replay it
// forever.
func TestRunKeepsJobErrorsBare(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 1})
	bad := jobs.Job{Kernel: "noSuchKernel", Scheduler: "PRO"}
	_, err := c.Run(context.Background(), []jobs.Job{bad})
	if err == nil {
		t.Fatal("unknown kernel ran successfully")
	}
	var te *TransportError
	if errors.As(err, &te) {
		t.Fatalf("deterministic job failure wrapped as TransportError: %v", err)
	}
}
