package jobs

import (
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
	recorded.Options.Flight = flight.New()

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
