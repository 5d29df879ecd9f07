package flight

import (
	"testing"

	"repro/internal/stats"
)

// TestFlightRingWrapKeepsNewest pins the ring semantics: when the
// event ring fills, the oldest events are overwritten (and counted as
// dropped), and events() still reads back in chronological order.
func TestFlightRingWrapKeepsNewest(t *testing.T) {
	r := New()
	r.Start(1)
	tr := r.SM(0)
	tr.Size(4, 2)

	const over = 12
	for i := 0; i < ringEvents+over; i++ {
		tr.OnWarpFinish(int64(i), i%4, 0, int64(i), 0)
	}
	evs := tr.events()
	if len(evs) != ringEvents {
		t.Fatalf("ring retained %d events, want %d", len(evs), ringEvents)
	}
	if tr.overwritten != over {
		t.Fatalf("overwritten = %d, want %d", tr.overwritten, over)
	}
	for i, e := range evs {
		if want := int64(over + i); e.Cycle != want {
			t.Fatalf("event %d at cycle %d, want %d (not chronological)", i, e.Cycle, want)
		}
	}
	captured, dropped := r.eventCounts()
	if captured != ringEvents+over || dropped != over {
		t.Fatalf("counts captured=%d dropped=%d, want %d/%d", captured, dropped, ringEvents+over, over)
	}
}

// TestFlightStallDedup pins the flood guard: without cycle skipping
// the engine re-reports a blocked warp every cycle, so repeats of the
// same stall cause since the warp's last issue collapse to one event,
// and the pending-load sentinel maps to -1.
func TestFlightStallDedup(t *testing.T) {
	r := New()
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

// TestFlightSpanRingWrap pins span-ring overwrite and pooling: commits
// beyond capacity overwrite the oldest span, and the pool recycles
// span objects instead of growing.
func TestFlightSpanRingWrap(t *testing.T) {
	m := New().Mem()
	const over = 6
	for i := 0; i < ringSpans+over; i++ {
		sp := m.Start(SpanLoad, 0, 0, uint64(i), int64(i), 0)
		sp.L2At, sp.Done, sp.Deliver = sp.Inject+1, sp.Inject+2, sp.Inject+3
		m.Commit(sp)
	}
	got := m.spans()
	if len(got) != ringSpans || m.overwritten != over {
		t.Fatalf("retained %d spans, overwritten %d; want %d/%d", len(got), m.overwritten, ringSpans, over)
	}
	for i, sp := range got {
		if want := int64(over + i); sp.Inject != want {
			t.Fatalf("span %d injected at %d, want %d (not commit order)", i, sp.Inject, want)
		}
	}
	if len(m.free) != 1 {
		t.Fatalf("span pool holds %d objects, want 1 (single live span recycled)", len(m.free))
	}
}

// TestFlightReportAggregates pins the report math on a hand-built
// capture: conditional means, hit/merge counters and the
// least-progressed ordering (ascending progress, cut to topN).
func TestFlightReportAggregates(t *testing.T) {
	r := New()
	r.Start(2)
	r.SM(0).Size(4, 2)
	r.SM(1).Size(topN, 2)

	r.SM(0).OnWarpFinish(100, 0, 0, 50, 10)
	r.SM(0).OnWarpFinish(110, 1, 0, 5, 10)
	r.SM(1).OnWarpFinish(120, 0, 1, 20, 15)
	// topN-1 more warps, each further along than the three above: the
	// one at progress 50 is the first the table leaves out.
	for w := 1; w < topN; w++ {
		r.SM(1).OnWarpFinish(130, w, 2, int64(20+w), 15)
	}

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
	if rep.Events != topN+2 || rep.Spans != 2 {
		t.Fatalf("events=%d spans=%d, want %d/2", rep.Events, rep.Spans, topN+2)
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
	if len(rep.LeastProgressed) != topN {
		t.Fatalf("least-progressed lists %d warps, want topN=%d", len(rep.LeastProgressed), topN)
	}
	for i, ws := range rep.LeastProgressed {
		want := int64(5) // then 20, 21, ..., 20+topN-2
		if i > 0 {
			want = int64(20 + i - 1)
		}
		if ws.Progress != want {
			t.Fatalf("least-progressed[%d] at progress %d, want %d: %+v", i, ws.Progress, want, rep.LeastProgressed)
		}
	}
	if lt := rep.LeastProgressed[0].Lifetime; lt != 100 {
		t.Fatalf("lifetime %d, want finish-spawn = 100", lt)
	}
}
