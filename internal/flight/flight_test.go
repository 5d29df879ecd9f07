package flight

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestFlightRingWrapKeepsNewest pins the ring semantics: when the
// event ring fills, the oldest events are overwritten (and counted as
// dropped), and events() still reads back in chronological order.
func TestFlightRingWrapKeepsNewest(t *testing.T) {
	r := New(Options{RingEvents: 8})
	r.Start(1)
	tr := r.SM(0)
	tr.Size(4, 2)

	for i := 0; i < 20; i++ {
		tr.OnWarpFinish(int64(i), i%4, 0, int64(i), 0)
	}
	evs := tr.events()
	if len(evs) != 8 {
		t.Fatalf("ring retained %d events, want 8", len(evs))
	}
	if tr.overwritten != 12 {
		t.Fatalf("overwritten = %d, want 12", tr.overwritten)
	}
	for i, e := range evs {
		if want := int64(12 + i); e.Cycle != want {
			t.Fatalf("event %d at cycle %d, want %d (not chronological)", i, e.Cycle, want)
		}
	}
	captured, dropped := r.eventCounts()
	if captured != 20 || dropped != 12 {
		t.Fatalf("counts captured=%d dropped=%d, want 20/12", captured, dropped)
	}
}

// TestFlightWarpSampling pins WarpSample: fine-grained events stick to
// slots where slot%N == 0, but warp-finish events are always kept so
// the least-progressed report stays complete.
func TestFlightWarpSampling(t *testing.T) {
	r := New(Options{WarpSample: 4})
	r.Start(1)
	tr := r.SM(0)
	tr.Size(8, 2)

	for w := 0; w < 8; w++ {
		tr.OnBarrier(1, w, 0)
		tr.OnWarpFinish(2, w, 0, 10, 0)
	}
	var barriers, finishes int
	for _, e := range tr.events() {
		switch e.Kind {
		case EvWarpBarrier:
			barriers++
			if e.Warp%4 != 0 {
				t.Fatalf("barrier recorded for unsampled warp %d", e.Warp)
			}
		case EvWarpFinish:
			finishes++
		}
	}
	if barriers != 2 {
		t.Fatalf("%d barrier events, want 2 (warps 0 and 4)", barriers)
	}
	if finishes != 8 {
		t.Fatalf("%d finish events, want all 8 regardless of sampling", finishes)
	}
}

// TestFlightStallDedup pins the flood guard: without cycle skipping
// the engine re-reports a blocked warp every cycle, so repeats of the
// same stall cause since the warp's last issue collapse to one event,
// and the pending-load sentinel maps to -1.
func TestFlightStallDedup(t *testing.T) {
	r := New(Options{ProgressEvery: 1})
	r.Start(1)
	tr := r.SM(0)
	tr.Size(4, 2)

	const pendingLoad = int64(1<<63 - 1)
	for cy := int64(1); cy <= 5; cy++ {
		tr.OnWarpStall(cy, 0, 0, 100) // same gate cycle, 5 cycles running
	}
	tr.OnIssue(6, 0, 0, 0, 1, 0) // issue resets the dedup state
	tr.OnWarpStall(7, 0, 0, 100) // same cause again → recorded again
	tr.OnWarpStall(8, 0, 0, pendingLoad)
	tr.OnWarpStall(9, 0, 0, pendingLoad)

	var stalls []Event
	for _, e := range tr.events() {
		if e.Kind == EvWarpStall {
			stalls = append(stalls, e)
		}
	}
	if len(stalls) != 3 {
		t.Fatalf("%d stall events, want 3 (dedup + reset + pending-load)", len(stalls))
	}
	if stalls[0].Cycle != 1 || stalls[1].Cycle != 7 {
		t.Fatalf("stall cycles %d,%d, want 1,7", stalls[0].Cycle, stalls[1].Cycle)
	}
	if stalls[2].A != -1 {
		t.Fatalf("pending-load stall A=%d, want -1", stalls[2].A)
	}
}

// TestFlightSpanComponentsSumIdentity pins the attribution identity on
// every span shape: the six components always sum exactly to
// Deliver-Inject.
func TestFlightSpanComponentsSumIdentity(t *testing.T) {
	cases := []struct {
		name string
		sp   MemSpan
	}{
		{"dram-path", MemSpan{Kind: SpanLoad,
			Inject: 10, L2At: 25, DRAMq: 40, Grant: 90, Done: 130, Deliver: 150}},
		{"l2-hit", MemSpan{Kind: SpanLoad, L2Hit: true,
			Inject: 10, L2At: 25, Done: 45, Deliver: 60}},
		{"l2-merged", MemSpan{Kind: SpanLoad, L2Merged: true,
			Inject: 10, L2At: 25, Done: 110, Deliver: 130}},
		{"store-fire-and-forget", MemSpan{Kind: SpanStore,
			Inject: 10, L2At: 25, DRAMq: 30, Grant: 55, Done: 80, Deliver: 80}},
		{"mshr-retry-wait", MemSpan{Kind: SpanLoad, Retries: 3,
			Inject: 10, L2At: 25, DRAMq: 200, Grant: 220, Done: 260, Deliver: 280}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.sp.Components()
			sum := c.ICNTReq + c.L2Service + c.L2MSHR + c.DRAMQueue + c.DRAMService + c.ICNTResp
			if sum != c.Total {
				t.Fatalf("components sum %d != total %d (%+v)", sum, c.Total, c)
			}
			if want := tc.sp.Deliver - tc.sp.Inject; c.Total != want {
				t.Fatalf("total %d != Deliver-Inject %d", c.Total, want)
			}
		})
	}
}

// TestFlightMemSampling pins MemSample: every Nth accepted transaction
// starts a span, the rest return nil so the carrier hooks stay single
// branches.
func TestFlightMemSampling(t *testing.T) {
	r := New(Options{MemSample: 3})
	m := r.Mem()
	var started int
	for i := 0; i < 9; i++ {
		sp := m.Start(SpanLoad, 0, 0, uint64(i), int64(i), 0)
		if sp != nil {
			started++
			sp.L2At, sp.Done, sp.Deliver = sp.Inject+1, sp.Inject+2, sp.Inject+3
			sp.L2Hit = true
			m.Commit(sp)
		}
	}
	if started != 3 {
		t.Fatalf("started %d spans of 9 at MemSample=3, want 3", started)
	}
	if got := len(m.spans()); got != 3 {
		t.Fatalf("committed %d spans, want 3", got)
	}
	if m.live != 0 {
		t.Fatalf("%d spans still live after commits", m.live)
	}
}

// TestFlightSpanRingWrap pins span-ring overwrite and pooling: commits
// beyond capacity overwrite the oldest span, and the pool recycles
// span objects instead of growing.
func TestFlightSpanRingWrap(t *testing.T) {
	r := New(Options{RingSpans: 4})
	m := r.Mem()
	for i := 0; i < 10; i++ {
		sp := m.Start(SpanLoad, 0, 0, uint64(i), int64(i), 0)
		sp.L2At, sp.Done, sp.Deliver = sp.Inject+1, sp.Inject+2, sp.Inject+3
		m.Commit(sp)
	}
	got := m.spans()
	if len(got) != 4 || m.overwritten != 6 {
		t.Fatalf("retained %d spans, overwritten %d; want 4/6", len(got), m.overwritten)
	}
	for i, sp := range got {
		if want := int64(6 + i); sp.Inject != want {
			t.Fatalf("span %d injected at %d, want %d (not commit order)", i, sp.Inject, want)
		}
	}
	if len(m.free) != 1 {
		t.Fatalf("span pool holds %d objects, want 1 (single live span recycled)", len(m.free))
	}
}

// TestFlightReportAggregates pins the report math on a hand-built
// capture: conditional means, hit/merge counters and the
// least-progressed ordering (ascending progress, TopN-truncated).
func TestFlightReportAggregates(t *testing.T) {
	r := New(Options{TopN: 2})
	r.Start(2)
	r.SM(0).Size(4, 2)
	r.SM(1).Size(4, 2)

	r.SM(0).OnWarpFinish(100, 0, 0, 50, 10)
	r.SM(0).OnWarpFinish(110, 1, 0, 5, 10)
	r.SM(1).OnWarpFinish(120, 0, 1, 20, 15)

	m := r.Mem()
	hit := m.Start(SpanLoad, 0, 0, 1, 10, 0)
	hit.L2At, hit.Done, hit.Deliver, hit.L2Hit = 20, 30, 40, true
	m.Commit(hit)
	miss := m.Start(SpanLoad, 1, 1, 2, 10, 0)
	miss.L2At, miss.DRAMq, miss.Grant, miss.Done, miss.Deliver = 20, 30, 60, 100, 120
	miss.RowHit = true
	m.Commit(miss)

	r.FinishRun("k", "s", 200, stats.StallBreakdown{Idle: 3, Scoreboard: 4, Pipeline: 5})
	rep := r.Report()

	if rep.Stalls.Total() != 12 {
		t.Fatalf("stall total %d, want 12", rep.Stalls.Total())
	}
	if rep.Events != 3 || rep.Spans != 2 {
		t.Fatalf("events=%d spans=%d, want 3/2", rep.Events, rep.Spans)
	}
	if rep.Mem.L2Hits != 1 || rep.Mem.RowHits != 1 {
		t.Fatalf("l2_hits=%d row_hits=%d, want 1/1", rep.Mem.L2Hits, rep.Mem.RowHits)
	}
	// mean total = ((40-10)+(120-10))/2; mean dram_queue over the one
	// span that has one = 30.
	if rep.Mem.MeanTotal != 70 {
		t.Fatalf("mean total %.1f, want 70", rep.Mem.MeanTotal)
	}
	if rep.Mem.MeanDRAMQueue != 30 {
		t.Fatalf("mean dram_queue %.1f, want 30", rep.Mem.MeanDRAMQueue)
	}
	if len(rep.LeastProgressed) != 2 {
		t.Fatalf("least-progressed lists %d warps, want TopN=2", len(rep.LeastProgressed))
	}
	if rep.LeastProgressed[0].Progress != 5 || rep.LeastProgressed[1].Progress != 20 {
		t.Fatalf("least-progressed not ascending: %+v", rep.LeastProgressed)
	}
	if lt := rep.LeastProgressed[0].Lifetime; lt != 100 {
		t.Fatalf("lifetime %d, want finish-spawn = 100", lt)
	}

	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "k/s") && !strings.Contains(buf.String(), "k") {
		t.Fatalf("text report missing run identity:\n%s", buf.String())
	}
}
