package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/workloads"
)

// TestFlightOptionDoesNotChangeCacheKey pins the kill switch: the
// recorder rides on gpu.Options behind a json:"-" tag, so attaching
// one must not move a job to a different cache identity — a flight
// capture is an execution artifact, never part of what was simulated.
func TestFlightOptionDoesNotChangeCacheKey(t *testing.T) {
	w, err := workloads.ByKernel("scalarProdGPU")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Shrunk(4)
	bare := Job{Launch: w.Launch, Kernel: w.Kernel, Scheduler: "PRO"}
	recorded := bare
	recorded.Options.Flight = flight.New(flight.Options{})

	k1, ok, err := Key(&bare)
	if err != nil || !ok {
		t.Fatalf("bare key: ok=%v err=%v", ok, err)
	}
	k2, ok, err := Key(&recorded)
	if err != nil || !ok {
		t.Fatalf("recorded key: ok=%v err=%v", ok, err)
	}
	if k1 != k2 {
		t.Fatalf("flight recorder changed the cache key: %s vs %s", k1, k2)
	}
}

// TestFlightDirWritesArtifact pins the per-job capture artifact: an
// engine with FlightDir set writes <cache-key>.trace.json next to the
// result-cache entry for every simulated job, the artifact is valid
// trace-event JSON, and a cache-served replay of the same job records
// nothing new.
func TestFlightDirWritesArtifact(t *testing.T) {
	w, err := workloads.ByKernel("scalarProdGPU")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Shrunk(4)
	j := Job{Launch: w.Launch, Kernel: w.Kernel, Scheduler: "LRR"}

	dir := t.TempDir()
	e, err := New(1, filepath.Join(dir, "cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.FlightDir = filepath.Join(dir, "flight")

	if _, err := e.RunOne(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	key, _, err := e.Key(&j)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(e.FlightDir, key+".trace.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("artifact has no trace events")
	}

	// Replay from the cache: the artifact must not be rewritten (a
	// cached result was never executed, so there is no flight).
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunOne(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("cache hit rewrote the flight artifact (stat err: %v)", err)
	}
	if e.Replayed() == 0 {
		t.Fatal("second run did not come from the cache")
	}
	if !strings.HasPrefix(filepath.Base(path), key) {
		t.Fatalf("artifact %s not named by cache key %s", path, key)
	}
}
