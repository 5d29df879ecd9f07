package gpu

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
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

// flightPins are SHA-256 digests of flProg captures (every warp, every
// issue, rings large enough to drop nothing) taken on the commit before
// the issue board (PR 15): for the PRO family the whole NDJSON export,
// for the three baselines the export without its meta line (which counts
// events) and its sched_resort events.
var flightPins = map[string]string{
	"PRO":          "5c6defd02a11525110b80bd297a1dbe8f21437a236e2f0746b8adc63ff878d2d",
	"PRO-nobar":    "cc0cb164f36d91e9c35f080c975cbf56b415e00276fe5435721a75920ccc7c6c",
	"PRO-adaptive": "e218fcd6109ccff2cebfa8d4e09d51d7424aa259d6eb490de5d446357a425b08",
	"PRO-norm":     "42203743a1e1354523cf3fe77ee9611e808ff6d21959224699a37051852e6a38",
	"TL":           "75d99b06f7ba4d5907cb28d7165c1ac859dc6a374d1c59736ff208879c9fe059",
	"LRR":          "cc86a0544af9a552a51fd8df73c5fba21282dd7f9ba1b87909f0a48f020e7f59",
	"GTO":          "57e1edbb4e26379c11d8ec3c4de75d4ae8433c25f2d712803e90ab5389e8f5ee",
}

// TestFlightCaptureKeepsAllButResorts pins what the issue board may and
// may not change in a capture. PRO's generation protocol is untouched,
// so its captures are the parent's byte for byte. LRR, GTO and TL no
// longer rebuild to move a cursor (their hooks return RotateAfter or
// NewHead), so their captures lose exactly the sched_resort events that
// described no re-sort — every other event is where it was — and what
// LRR and GTO still record is bounded by the events that change an
// order's membership.
func TestFlightCaptureKeepsAllButResorts(t *testing.T) {
	launch := flProg(t)
	for name, pin := range flightPins {
		name, pin := name, pin
		t.Run(name, func(t *testing.T) {
			factory, err := schedreg.New(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := flight.New(flight.Options{RingEvents: 1 << 16, RingSpans: 1 << 17, ProgressEvery: 1})
			if _, err := Run(config.GTX480(), launch, factory, Options{Flight: rec}); err != nil {
				t.Fatal(err)
			}
			c := rec.Capture()
			if c.EventsDropped != 0 || c.SpansDropped != 0 {
				t.Fatalf("rings dropped %d events, %d spans", c.EventsDropped, c.SpansDropped)
			}
			var buf bytes.Buffer
			if err := c.WriteNDJSON(&buf); err != nil {
				t.Fatal(err)
			}
			pro := strings.HasPrefix(name, "PRO")
			sum := sha256.New()
			var resorts, membership int
			for i, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
				resort := bytes.Contains(line, []byte(`"kind":"sched_resort"`))
				if resort {
					resorts++
				}
				for _, k := range []string{"tb_start", "tb_finish", "warp_finish", "warp_barrier"} {
					if bytes.Contains(line, []byte(`"kind":"`+k+`"`)) {
						membership++
					}
				}
				if pro || (i > 0 && !resort) {
					sum.Write(line)
				}
			}
			if got := hex.EncodeToString(sum.Sum(nil)); got != pin {
				t.Errorf("capture digest %s, pinned %s", got, pin)
			}
			if (name == "LRR" || name == "GTO") && resorts > membership {
				t.Errorf("%d sched_resort events for %d assign/retire/finish/barrier events", resorts, membership)
			}
			t.Logf("%d sched_resort events, %d membership events", resorts, membership)
		})
	}
}
