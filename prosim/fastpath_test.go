package prosim_test

// Differential tests for the simulation fast paths. The order cache,
// stall-aware cycle skipping and warp pooling exist
// purely to make simulations faster; by design they must be invisible in
// every observable output — cycles, stall breakdowns, memory counters,
// timelines and samples. These tests run a workload × scheduler grid
// with each fast path toggled off — the order cache by the uncachedOrder
// policy wrapper, the other two by their Config switches — and require
// byte-identical results against the naive reference. It is the gate for
// any change to the cycle engine: `make check` runs all five grids in its
// `fastpath` pass, and under -race in its race pass only the naive
// reference against all fast paths on (raceDetector): a simulation runs
// on one goroutine, so the detector watches only the test's own
// concurrency, which that pair already has, and the three single-path
// grids would more than double the package's minutes there.

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/schedreg"
	"repro/prosim"
)

// fastPaths names the simulation-speed paths under differential test.
// The zero value is the production configuration (everything on).
type fastPaths struct {
	uncachedOrder      bool
	disableCycleSkip   bool
	disableWarpPooling bool
}

// naivePaths disables every fast path — the reference implementation.
var naivePaths = fastPaths{
	uncachedOrder:      true,
	disableCycleSkip:   true,
	disableWarpPooling: true,
}

// uncachedOrder wraps a policy so that the SM rebuilds its order on
// every slot-cycle: OrderGen runs the wrapped policy's OrderGen, where
// time-driven refreshes such as PRO's THRESHOLD re-sort live, and then
// returns the cycle, a generation no earlier slot-cycle returned. Every
// other method, Name included, is the wrapped policy's.
type uncachedOrder struct{ engine.Scheduler }

func (u uncachedOrder) OrderGen(slot int, cycle int64) uint64 {
	u.Scheduler.OrderGen(slot, cycle)
	return uint64(cycle)
}

// withUncachedOrder wraps every policy f builds in uncachedOrder.
func withUncachedOrder(f prosim.Factory) prosim.Factory {
	return func(sm *engine.SM) engine.Scheduler { return uncachedOrder{f(sm)} }
}

// diffRow is one kernel of a differential grid: its grid size, the
// observation options it runs under and, when set, a change to the
// GTX480 hardware it runs on and the policies TestFastPathEquivalence
// runs it under (nil: every registered one).
type diffRow struct {
	kernel string
	maxTBs int
	opts   []prosim.Options
	hw     func(*prosim.Config)
	scheds []string
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

// twoSMs runs a grid on two SMs, so a 16-TB grid churns: each SM
// retires thread blocks and is assigned new ones, and with warp pooling
// on the new ones reuse the retired warps (DESIGN.md §8.7).
func twoSMs(cfg *prosim.Config) { cfg.NumSMs = 2 }

// churnRows are the TB-churn rows: a policy that acts on a warp pointer
// it holds past the TB's retirement (DESIGN.md §8.1, "Hook order")
// makes the pooled run differ from the reference on both kernels.
var churnRows = []diffRow{
	{kernel: "kernel", maxTBs: 16, opts: []prosim.Options{{}}, hw: twoSMs},
	{kernel: "bpnn_adjust_weights_cuda", maxTBs: 16, opts: []prosim.Options{{}}, hw: twoSMs},
}

// fastPathGrid simulates the differential grid with the given fast
// paths and returns one canonical JSON encoding per run.
func fastPathGrid(fp fastPaths) ([]string, error) {
	// The sampled run checks that mid-run observations (per-interval
	// counters, TB timelines) see the same state at the same cycles.
	opts := []prosim.Options{{}, {Timeline: true, SampleEvery: 500}}
	rows := append([]diffRow{
		{kernel: "aesEncrypt128", maxTBs: 8, opts: opts}, {kernel: "scalarProdGPU", maxTBs: 8, opts: opts},
		{kernel: "calculate_temp", maxTBs: 8, opts: opts},
	}, churnRows...)
	rows = append(rows, memoryBoundRows...)
	// Every registered policy runs the rows above; PRO-adaptive exercises
	// the timed-refresh path (the adaptive profiler switches phases on a
	// schedule, not on issue events). The wide-slot rows keep the paper's
	// four and PRO-adaptive: all nine there too would take this package
	// past go test's 10-minute default under -race.
	for _, row := range []diffRow{
		{kernel: "aesEncrypt128", maxTBs: 24, opts: opts[:1], hw: wideSlot},
		{kernel: "scalarProdGPU", maxTBs: 24, opts: opts[:1], hw: wideSlot},
	} {
		row.scheds = []string{"TL", "LRR", "GTO", "PRO", "PRO-adaptive"}
		rows = append(rows, row)
	}

	var out []string
	for _, row := range rows {
		k := row.kernel
		w, err := prosim.WorkloadByKernel(k)
		if err != nil {
			return nil, err
		}
		w = w.Shrunk(row.maxTBs)
		scheds := row.scheds
		if scheds == nil {
			scheds = schedreg.All()
		}
		for _, s := range scheds {
			f, err := prosim.Schedulers(s)
			if err != nil {
				return nil, err
			}
			if fp.uncachedOrder {
				f = withUncachedOrder(f)
			}
			for _, o := range row.opts {
				cfg := prosim.GTX480()
				if row.hw != nil {
					row.hw(cfg)
				}
				cfg.DisableCycleSkip = fp.disableCycleSkip
				cfg.DisableWarpPooling = fp.disableWarpPooling
				r, err := prosim.RunFactory(cfg, w.Launch, f, o)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", k, s, err)
				}
				data, err := json.Marshal(r)
				if err != nil {
					return nil, err
				}
				out = append(out, string(data))
			}
		}
	}
	return out, nil
}

func TestFastPathEquivalence(t *testing.T) {
	// The five grids are independent, so the naive reference runs beside
	// the four fast-path grids, which are parallel subtests: the test is
	// about 30 s of CPU, and some 18 times that under -race, where only
	// default-all-on runs beside the reference.
	var naive []string
	var naiveErr error
	naiveDone := make(chan struct{})
	go func() {
		defer close(naiveDone)
		naive, naiveErr = fastPathGrid(naivePaths)
	}()
	t.Cleanup(func() { <-naiveDone })
	each := func(mod func(*fastPaths)) fastPaths {
		fp := naivePaths
		mod(&fp)
		return fp
	}
	for _, tc := range []struct {
		name   string
		fp     fastPaths
		noRace bool // skipped under -race; `make fastpath` runs it
	}{
		{"order-cache-only", each(func(fp *fastPaths) { fp.uncachedOrder = false }), true},
		{"cycle-skip-only", each(func(fp *fastPaths) { fp.disableCycleSkip = false }), true},
		{"warp-pooling-only", each(func(fp *fastPaths) { fp.disableWarpPooling = false }), true},
		// Everything on together: the production configuration.
		{"default-all-on", fastPaths{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.noRace && raceDetector {
				t.Skip("single-path grid: runs without -race in `make fastpath`")
			}
			t.Parallel()
			got, err := fastPathGrid(tc.fp)
			if err != nil {
				t.Fatal(err)
			}
			<-naiveDone
			if naiveErr != nil {
				t.Fatalf("naive path: %v", naiveErr)
			}
			for i := range naive {
				if got[i] != naive[i] {
					t.Errorf("run %d: result differs from the naive path", i)
				}
			}
		})
	}
}
