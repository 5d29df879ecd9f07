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
// recorder attached must produce byte-identical results
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

			rec := flight.New()
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

// flightPins are SHA-256 digests of flProg captures (every warp, a
// progress point every 32 issues, and a grid small enough that the fixed
// rings drop nothing) taken on commit 4271e86, the one before the issue
// board: for the PRO family the whole NDJSON export, for the three
// baselines the export without its meta line (which counts events) and
// its sched_resort events.
var flightPins = map[string]string{
	"PRO":          "4222d23e40d01d06c9328e8a0d31b30bd05f8ab120413dc1075382a1491a6313",
	"PRO-nobar":    "a80f702df2a46b453fffbf551c22b34bf0946b06b7317ff692c544da5d5364c3",
	"PRO-adaptive": "549c92b541bf9eba76c6cf9be3424207023e8ccb5a260eb465d2fb85738ab094",
	"PRO-norm":     "c90062351035a4c67c99fc8f46b3b24baa635a2e563183b8282bba3ebf78fb98",
	"TL":           "486d9e6bcbf46434bda30e31988dc6991ce4c01affa7d1b2830cf39725adf1bb",
	"LRR":          "c8083ae59bfdd30ca18afd6c49087eb261cdec53f11e5625142a3b69fc9ac901",
	"GTO":          "d4997e333b4dc7c98d9e2aed301fbdbd2204db16b210f89724d40ffaa342123b",
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
			rec := flight.New()
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
