package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
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
	b1, _ := c.locate(g1.Line)
	b2, _ := c.locate(g2.Line)
	if b1 == b2 {
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

// refChannel is the channel as it was before the queue went per bank: one
// queue in arrival order, scanned whole on every Tick. It is the oracle
// TestChannelMatchesReferenceScan holds Channel to.
type refChannel struct {
	banks      int
	rowBytes   uint64
	rowHit     int64
	rowMiss    int64
	queueDepth int
	openRow    []uint64
	rowValid   []bool
	bankBusy   []int64
	queue      []*refReq
	arrivalSeq int64
	nextReady  int64
	Reqs       int64
	RowHits    int64
}

type refReq struct {
	*Request
	arrival int64
	bank    int
	row     uint64
}

func newRefChannel(banks int, rowBytes uint64, rowHit, rowMiss int64, queueDepth int) *refChannel {
	return &refChannel{
		banks:      banks,
		rowBytes:   rowBytes,
		rowHit:     rowHit,
		rowMiss:    rowMiss,
		queueDepth: queueDepth,
		openRow:    make([]uint64, banks),
		rowValid:   make([]bool, banks),
		bankBusy:   make([]int64, banks),
	}
}

func (c *refChannel) locate(line uint64) (bank int, row uint64) {
	row = line / c.rowBytes
	return int(row % uint64(c.banks)), row / uint64(c.banks)
}

func (c *refChannel) Enqueue(req *Request) bool {
	if len(c.queue) >= c.queueDepth {
		return false
	}
	r := &refReq{Request: req}
	r.arrival = c.arrivalSeq
	c.arrivalSeq++
	r.bank, r.row = c.locate(r.Line)
	c.queue = append(c.queue, r)
	c.Reqs++
	c.nextReady = 0
	return true
}

func (c *refChannel) Busy(cycle int64) bool {
	if len(c.queue) > 0 {
		return true
	}
	for _, b := range c.bankBusy {
		if b > cycle {
			return true
		}
	}
	return false
}

func (c *refChannel) Tick(cycle int64) (granted *Request, doneAt int64) {
	if len(c.queue) == 0 || cycle < c.nextReady {
		return nil, 0
	}
	best := -1
	bestHit := false
	for i, r := range c.queue {
		if c.bankBusy[r.bank] > cycle {
			continue
		}
		hit := c.rowValid[r.bank] && c.openRow[r.bank] == r.row
		switch {
		case best == -1:
			best, bestHit = i, hit
		case hit && !bestHit:
			// First-ready: any row hit beats any row miss.
			best, bestHit = i, hit
		case hit == bestHit && c.queue[i].arrival < c.queue[best].arrival:
			best = i
		}
	}
	if best == -1 {
		// Every queued request's bank is busy; nothing can be granted
		// before the earliest of those banks frees.
		next := int64(1<<63 - 1)
		for _, r := range c.queue {
			if b := c.bankBusy[r.bank]; b < next {
				next = b
			}
		}
		c.nextReady = next
		return nil, 0
	}
	r := c.queue[best]
	c.queue = append(c.queue[:best], c.queue[best+1:]...)
	service := c.rowMiss
	if bestHit {
		service = c.rowHit
		c.RowHits++
	}
	if r.Span != nil {
		r.Span.Grant = cycle
		r.Span.RowHit = bestHit
	}
	c.openRow[r.bank] = r.row
	c.rowValid[r.bank] = true
	done := cycle + service
	c.bankBusy[r.bank] = done
	return r.Request, done
}

// TestChannelMatchesReferenceScan drives Channel and the whole-queue scan
// it replaced with the same seeded Enqueue/Tick streams — 1 to 16 banks,
// queue depth 1 to 32, lines drawn from a few rows per bank so hits, misses
// and busy banks all occur — and requires the same answer to every Enqueue,
// the same grant and completion cycle on every Tick, and the same Busy,
// Reqs and RowHits after every cycle.
//
// Mutation-checked: leaving a bank's hit index or rank as it was on grant,
// not ranking a hit on enqueue, not lowering nextReady on enqueue, ranking
// misses with hits, and `<=` for `<` across banks each fail it at once.
func TestChannelMatchesReferenceScan(t *testing.T) {
	const rowBytes = 2048
	var grants, hits int64
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		banks, depth := 1+rng.Intn(16), 1+rng.Intn(32)
		c := NewChannel(banks, rowBytes, 40, 100, depth)
		ref := newRefChannel(banks, rowBytes, 40, 100, depth)
		rows := 1 + rng.Intn(3) // rows in use per bank
		pressure := 1 + rng.Intn(4)
		var cycle int64
		for step := 0; step < 2000; step++ {
			if rng.Intn(8) == 0 {
				cycle += 1 + rng.Int63n(150) // a quiet stretch
			} else {
				cycle++
			}
			for n := rng.Intn(pressure + 1); n > 0; n-- {
				b, row := uint64(rng.Intn(banks)), uint64(rng.Intn(rows))
				line := (row*uint64(banks)+b)*rowBytes + uint64(rng.Intn(rowBytes/128))*128
				r := &Request{Line: line}
				if got, want := c.Enqueue(r), ref.Enqueue(r); got != want {
					t.Fatalf("seed %d cycle %d: Enqueue = %v, reference %v", seed, cycle, got, want)
				}
			}
			g, at := c.Tick(cycle)
			wg, wat := ref.Tick(cycle)
			if g != wg || at != wat {
				t.Fatalf("seed %d cycle %d (%d banks, depth %d): granted %p done %d, reference %p done %d",
					seed, cycle, banks, depth, g, at, wg, wat)
			}
			if c.Busy(cycle) != ref.Busy(cycle) || c.Reqs != ref.Reqs || c.RowHits != ref.RowHits {
				t.Fatalf("seed %d cycle %d: busy %v reqs %d hits %d, reference %v %d %d",
					seed, cycle, c.Busy(cycle), c.Reqs, c.RowHits, ref.Busy(cycle), ref.Reqs, ref.RowHits)
			}
			if g != nil {
				grants++
			}
		}
		hits += c.RowHits
	}
	t.Logf("%d grants, %d row hits", grants, hits)
	if grants < 100000 || hits < grants/10 || hits > grants*9/10 {
		t.Fatalf("vacuous streams: %d grants, %d of them row hits", grants, hits)
	}
}

// BenchmarkChannelTick is the measurement-ladder rung for the FR-FCFS
// step on the GTX480 channel: one arbitration (the Tick that grants) plus
// the Enqueue that refills the queue, at a steady queue depth of 4 and of
// 32 requests over random lines, the clock moving a row-miss time per step
// so every bank is free.
func BenchmarkChannelTick(b *testing.B) {
	cfg := config.GTX480()
	for _, depth := range []int{4, 32} {
		b.Run(map[int]string{4: "q4", 32: "q32"}[depth], func(b *testing.B) {
			c := NewChannel(cfg.DRAMBanksPerChannel, uint64(cfg.DRAMRowBytes),
				int64(cfg.DRAMRowHit), int64(cfg.DRAMRowMiss), depth)
			rng := rand.New(rand.NewSource(1))
			reqs := make([]Request, 1<<12)
			for i := range reqs {
				reqs[i].Line = uint64(rng.Int63n(1<<30)) &^ 127
			}
			for i := 0; i < depth; i++ {
				c.Enqueue(&reqs[i])
			}
			var cycle int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle += int64(cfg.DRAMRowMiss)
				if r, _ := c.Tick(cycle); r == nil {
					b.Fatal("nothing granted with every bank free")
				}
				c.Enqueue(&reqs[(depth+i)&(len(reqs)-1)])
			}
		})
	}
}
