package gpu

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/isa"
	"repro/internal/schedreg"
)

// flProg is a kernel that exercises every recorder hook: per-iteration
// global loads (memory spans, scoreboard stalls), a barrier (barrier
// events), a store (fire-and-forget spans) and enough TBs that SMs
// retire and re-assign blocks.
func flProg(t *testing.T) *engine.Launch {
	t.Helper()
	b := isa.NewBuilder("fl-kernel")
	b.Loop(isa.LoopSpec{Min: 48, Max: 48})
	b.IAdd(1, 0, 0)
	b.LdGlobal(2, isa.MemSpec{Pattern: isa.PatCoalesced, IterVaries: true})
	b.Bar()
	b.EndLoop()
	b.StGlobal(1, isa.MemSpec{Pattern: isa.PatCoalesced})
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Launch{Program: p, GridTBs: 32, BlockThreads: 256, Seed: 7}
}

// TestFlightRecorderDoesNotAlterResults is the bit-identity gate for
// the flight recorder: for every registered scheduler, a run with a
// full-fidelity recorder attached must produce byte-identical results
// (including the sampled timeline) to a bare run, while the capture
// itself is sane — events and spans were recorded, the report's stall
// taxonomy matches the run's, and every memory span's component split
// sums exactly to its total latency.
func TestFlightRecorderDoesNotAlterResults(t *testing.T) {
	launch := flProg(t)
	for _, name := range schedreg.All() {
		t.Run(name, func(t *testing.T) {
			factory, err := schedreg.New(name)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := Run(config.GTX480(), launch, factory, Options{SampleEvery: 512})
			if err != nil {
				t.Fatal(err)
			}

			rec := flight.New(flight.Options{ProgressEvery: 1, MemSample: 1})
			observed, err := Run(config.GTX480(), launch, factory,
				Options{SampleEvery: 512, Flight: rec})
			if err != nil {
				t.Fatal(err)
			}

			a, _ := json.Marshal(bare)
			b, _ := json.Marshal(observed)
			if !bytes.Equal(a, b) {
				t.Fatal("flight recorder changed the simulation result")
			}

			if !rec.Recorded() {
				t.Fatal("recorder not finalized after a successful run")
			}
			rep := rec.Report()
			if rep.Kernel != "fl-kernel" || rep.Scheduler != bare.Scheduler {
				t.Fatalf("report mislabeled: %s/%s", rep.Kernel, rep.Scheduler)
			}
			if rep.Cycles != bare.Cycles {
				t.Fatalf("report cycles %d, run cycles %d", rep.Cycles, bare.Cycles)
			}
			if rep.Stalls.Total() != bare.Stalls.Total() {
				t.Fatalf("report stall total %d, run stall total %d",
					rep.Stalls.Total(), bare.Stalls.Total())
			}
			if rep.Events == 0 {
				t.Fatal("no events captured")
			}
			if rep.Spans == 0 {
				t.Fatal("no memory spans captured")
			}
			if len(rep.LeastProgressed) == 0 {
				t.Fatal("least-progressed table empty despite finished warps")
			}

			cap := rec.Capture()
			for i := range cap.Spans {
				sp := &cap.Spans[i]
				c := sp.Components()
				sum := c.ICNTReq + c.L2Service + c.L2MSHR + c.DRAMQueue +
					c.DRAMService + c.ICNTResp
				if sum != c.Total {
					t.Fatalf("span %d components sum %d != total %d (%+v)", i, sum, c.Total, sp)
				}
				if c.Total != sp.Deliver-sp.Inject {
					t.Fatalf("span %d total %d != Deliver-Inject %d", i, c.Total, sp.Deliver-sp.Inject)
				}
				if c.Total < 0 {
					t.Fatalf("span %d negative total: %+v", i, sp)
				}
			}
		})
	}
}

// TestFlightSinkRecordsRun pins the process-wide sink: with no
// per-run recorder in Options, a registered sink receives one capture
// per run; an explicit Options.Flight recorder takes precedence and
// the sink stays silent for that run.
func TestFlightSinkRecordsRun(t *testing.T) {
	launch := flProg(t)
	factory, err := schedreg.New("LRR")
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		captures []*flight.Capture
	)
	SetFlightSink(func(c *flight.Capture) {
		mu.Lock()
		captures = append(captures, c)
		mu.Unlock()
	}, flight.Options{})
	defer SetFlightSink(nil, flight.Options{})

	if _, err := Run(config.GTX480(), launch, factory, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(captures) != 1 {
		t.Fatalf("sink received %d captures, want 1", len(captures))
	}
	if c := captures[0]; c.Kernel != "fl-kernel" || len(c.Events) == 0 {
		t.Fatalf("sink capture malformed: kernel=%q events=%d", c.Kernel, len(c.Events))
	}

	// An explicit recorder wins; the sink must not fire again.
	rec := flight.New(flight.Options{})
	if _, err := Run(config.GTX480(), launch, factory, Options{Flight: rec}); err != nil {
		t.Fatal(err)
	}
	if len(captures) != 1 {
		t.Fatalf("sink fired for a run with an explicit recorder (%d captures)", len(captures))
	}
	if !rec.Recorded() {
		t.Fatal("explicit recorder not finalized")
	}
}
