package dram

import (
	"testing"
	"testing/quick"
)

func newTestChannel() *Channel {
	return NewChannel(4, 2048, 40, 100, 32)
}

func TestRowMissThenHitTiming(t *testing.T) {
	c := newTestChannel()
	var done []int64
	mk := func(line uint64) *Request {
		return &Request{Line: line, Done: func(cy int64) { done = append(done, cy) }}
	}
	// Two requests to the same row: first opens (miss), second hits.
	if !c.Enqueue(mk(0)) || !c.Enqueue(mk(128)) {
		t.Fatal("enqueue failed on empty queue")
	}
	r1, at1 := c.Tick(10)
	if r1 == nil || at1 != 110 {
		t.Fatalf("first grant at %d, want 110 (row miss)", at1)
	}
	// Bank busy until 110: nothing grants meanwhile.
	if r, _ := c.Tick(50); r != nil {
		t.Fatal("granted while bank busy")
	}
	r2, at2 := c.Tick(110)
	if r2 == nil || at2 != 150 {
		t.Fatalf("second grant completes at %d, want 150 (row hit)", at2)
	}
	if c.RowHits != 1 {
		t.Fatalf("RowHits = %d, want 1", c.RowHits)
	}
}

func TestFRFCFSPrefersRowHitOverOlder(t *testing.T) {
	c := newTestChannel()
	// Open row 0 of bank 0.
	c.Enqueue(&Request{Line: 0})
	c.Tick(1)
	// Queue: older request to a different row (same bank), newer to the
	// open row. FR-FCFS must pick the newer row hit first.
	rowMiss := &Request{Line: 4 * 2048 * 4} // bank 0, different row
	rowHit := &Request{Line: 64}            // bank 0, row 0
	c.Enqueue(rowMiss)
	c.Enqueue(rowHit)
	g, _ := c.Tick(200) // bank idle again
	if g != rowHit {
		t.Fatal("FR-FCFS did not prefer the row hit")
	}
	g2, _ := c.Tick(400)
	if g2 != rowMiss {
		t.Fatal("remaining request not granted")
	}
}

func TestOldestFirstAmongMisses(t *testing.T) {
	c := newTestChannel()
	a := &Request{Line: 0}
	b := &Request{Line: 4 * 2048 * 8} // same bank 0, another row
	c.Enqueue(a)
	c.Enqueue(b)
	if g, _ := c.Tick(1); g != a {
		t.Fatal("older request not granted first")
	}
}

func TestBankParallelism(t *testing.T) {
	c := newTestChannel()
	// Requests to different banks can be in service concurrently; grants
	// serialize at one per tick.
	c.Enqueue(&Request{Line: 0})        // bank 0
	c.Enqueue(&Request{Line: 1 * 2048}) // bank 1
	g1, _ := c.Tick(1)
	g2, _ := c.Tick(2)
	if g1 == nil || g2 == nil {
		t.Fatal("banks did not service in parallel")
	}
	if g1.bank == g2.bank {
		t.Fatal("expected distinct banks")
	}
}

func TestQueueCapacity(t *testing.T) {
	c := newTestChannel()
	for i := 0; i < 32; i++ {
		if !c.Enqueue(&Request{Line: uint64(i) * 128}) {
			t.Fatalf("enqueue %d refused below capacity", i)
		}
	}
	if c.Enqueue(&Request{Line: 999 * 128}) {
		t.Fatal("enqueue accepted past capacity")
	}
}

func TestBusyReflectsQueueAndBanks(t *testing.T) {
	c := newTestChannel()
	if c.Busy(0) {
		t.Fatal("empty channel busy")
	}
	c.Enqueue(&Request{Line: 0})
	if !c.Busy(0) {
		t.Fatal("queued channel not busy")
	}
	_, at := c.Tick(1)
	if !c.Busy(at - 1) {
		t.Fatal("channel with bank in service not busy")
	}
	if c.Busy(at) {
		t.Fatal("drained channel still busy")
	}
}

func TestPropertyEveryRequestEventuallyServed(t *testing.T) {
	f := func(lines []uint16) bool {
		c := newTestChannel()
		want := 0
		served := 0
		for _, ln := range lines {
			if want >= 32 {
				break
			}
			r := &Request{Line: uint64(ln) * 128, Done: func(int64) { served++ }}
			if c.Enqueue(r) {
				want++
			}
		}
		cycle := int64(1)
		for c.Busy(cycle) && cycle < 1_000_000 {
			if g, _ := c.Tick(cycle); g != nil && g.Done != nil {
				g.Done(cycle)
			}
			cycle++
		}
		return served == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLocateDistributesBanks(t *testing.T) {
	c := newTestChannel()
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		b, _ := c.locate(uint64(i) * 2048)
		seen[b] = true
	}
	if len(seen) != 4 {
		t.Fatalf("rows spread over %d banks, want 4", len(seen))
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewChannel(0, 2048, 40, 100, 32)
}
