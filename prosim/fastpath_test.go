package prosim_test

// Differential tests for the simulation fast paths. The order cache,
// stall-aware cycle skipping, global fast-forward and warp pooling exist
// purely to make simulations faster; by design they must be invisible in
// every observable output — cycles, stall breakdowns, memory counters,
// timelines and samples. These tests run a workload × scheduler grid
// with each fast path toggled off via the Config switches and require
// byte-identical results against the naive reference. `make check` runs
// this test by name; it is the gate for any change to the cycle engine.

import (
	"encoding/json"
	"testing"

	"repro/prosim"
)

// fastPaths names the simulation-speed switches under differential test.
// The zero value is the production configuration (everything on).
type fastPaths struct {
	disableOrderCache  bool
	disableCycleSkip   bool
	disableFastForward bool
	disableWarpPooling bool
}

// naivePaths disables every fast path — the reference implementation.
var naivePaths = fastPaths{
	disableOrderCache:  true,
	disableCycleSkip:   true,
	disableFastForward: true,
	disableWarpPooling: true,
}

// diffRow is one kernel of a differential grid: its grid size, the
// observation options it runs under and, when set, a change to the
// GTX480 hardware it runs on.
type diffRow struct {
	kernel string
	maxTBs int
	opts   []prosim.Options
	hw     func(*prosim.Config)
}

// wideSlot is one SM with a single scheduler owning 128 warp slots, the
// other per-SM limits raised to admit them: sixteen 256-thread blocks
// are resident, so the issue board's masks (DESIGN.md §8.4) span two
// words and its multi-word paths execute.
func wideSlot(cfg *prosim.Config) {
	cfg.NumSMs = 1
	cfg.SchedulersPerSM = 1
	cfg.MaxThreadsPerSM = 4096
	cfg.MaxTBsPerSM = 32
	cfg.RegistersPerSM = 1 << 17
	cfg.SharedMemPerSM = 192 << 10
}

// memoryBoundRows are kernels that park SMs in Pipeline stalls, at least
// one per structural block reason the engine sleeps through (DESIGN.md
// §8.3): L1-MSHR back-pressure on loads
// (bpnn_layerforward, scalarProdGPU), store-buffer back-pressure from
// an uncoalesced store (bpnn_adjust_weights_cuda), SFU-queue saturation
// (MonteCarloOneBlockPerOption) and the LD/ST busy window of
// bank-conflicted shared accesses (GPU_laplace3d). Sixteen TBs put two
// on some SMs and one on the rest (about a third of all slot-cycles are
// Pipeline stalls at that size; more costs too much under -race); the
// dense, odd sampling interval makes sample boundaries land inside
// sleeps, so the bulk stall accounting is flushed mid-sleep over and
// over and must still add up.
var memoryBoundRows = func() []diffRow {
	dense := []prosim.Options{{SampleEvery: 37}}
	var rows []diffRow
	for _, k := range []string{
		"bpnn_layerforward", "scalarProdGPU", "bpnn_adjust_weights_cuda",
		"MonteCarloOneBlockPerOption", "GPU_laplace3d",
	} {
		rows = append(rows, diffRow{kernel: k, maxTBs: 16, opts: dense})
	}
	return rows
}()

// fastPathGrid simulates the differential grid with the given fast-path
// switches and returns one canonical JSON encoding per run.
func fastPathGrid(t *testing.T, fp fastPaths) []string {
	t.Helper()
	// The sampled run checks that mid-run observations (per-interval
	// counters, TB timelines) see the same state at the same cycles.
	opts := []prosim.Options{{}, {Timeline: true, SampleEvery: 500}}
	rows := append([]diffRow{
		{kernel: "aesEncrypt128", maxTBs: 8, opts: opts}, {kernel: "scalarProdGPU", maxTBs: 8, opts: opts},
		{kernel: "calculate_temp", maxTBs: 8, opts: opts},
		{kernel: "aesEncrypt128", maxTBs: 24, opts: opts[:1], hw: wideSlot},
		{kernel: "scalarProdGPU", maxTBs: 24, opts: opts[:1], hw: wideSlot},
	}, memoryBoundRows...)
	// PRO-adaptive exercises the timed-refresh path (the adaptive
	// profiler switches phases on a schedule, not on issue events).
	scheds := []string{"TL", "LRR", "GTO", "PRO", "PRO-adaptive"}

	var out []string
	for _, row := range rows {
		k := row.kernel
		w, err := prosim.WorkloadByKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		w = w.Shrunk(row.maxTBs)
		for _, s := range scheds {
			for _, o := range row.opts {
				cfg := prosim.GTX480()
				if row.hw != nil {
					row.hw(cfg)
				}
				cfg.DisableOrderCache = fp.disableOrderCache
				cfg.DisableCycleSkip = fp.disableCycleSkip
				cfg.DisableFastForward = fp.disableFastForward
				cfg.DisableWarpPooling = fp.disableWarpPooling
				r, err := prosim.Run(cfg, w.Launch, s, o)
				if err != nil {
					t.Fatalf("%s/%s: %v", k, s, err)
				}
				data, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, string(data))
			}
		}
	}
	return out
}

func TestFastPathEquivalence(t *testing.T) {
	naive := fastPathGrid(t, naivePaths)
	each := func(mod func(*fastPaths)) fastPaths {
		fp := naivePaths
		mod(&fp)
		return fp
	}
	for _, tc := range []struct {
		name string
		fp   fastPaths
	}{
		{"order-cache-only", each(func(fp *fastPaths) { fp.disableOrderCache = false })},
		{"cycle-skip-only", each(func(fp *fastPaths) { fp.disableCycleSkip = false })},
		{"fast-forward-only", each(func(fp *fastPaths) { fp.disableFastForward = false })},
		{"warp-pooling-only", each(func(fp *fastPaths) { fp.disableWarpPooling = false })},
		// Everything on together: the production configuration.
		{"default-all-on", fastPaths{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := fastPathGrid(t, tc.fp)
			for i := range naive {
				if got[i] != naive[i] {
					t.Errorf("run %d: result differs from the naive path", i)
				}
			}
		})
	}
}
