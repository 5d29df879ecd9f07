package memsys

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/timing"
)

func testSystem() (*System, *timing.Wheel, *config.Config) {
	cfg := config.GTX480()
	cfg.NumSMs = 2
	cfg.L2Partitions = 2
	cfg.L2Size = 256 * 1024
	w := timing.NewWheel()
	return New(cfg, w), w, cfg
}

// runUntil advances the wheel in single cycles, ticking DRAM, until cond
// or the cycle budget runs out; returns the final cycle.
func runUntil(s *System, w *timing.Wheel, budget int64, cond func() bool) int64 {
	for c := w.Now() + 1; c < w.Now()+budget; c++ {
		w.Advance(c)
		s.Tick(c)
		if cond() {
			return c
		}
	}
	return -1
}

func TestLoadMissGoesThroughHierarchyAndFills(t *testing.T) {
	s, w, cfg := testSystem()
	var doneAt int64 = -1
	if !s.LoadLine(0, 0x1000<<7, func(c int64) { doneAt = c }) {
		t.Fatal("cold load refused")
	}
	end := runUntil(s, w, 100000, func() bool { return doneAt >= 0 })
	if end < 0 {
		t.Fatal("load never completed")
	}
	// Must be a long-latency path: icnt out + L2 + DRAM + icnt back.
	if doneAt < int64(cfg.IcntLatency*2) {
		t.Fatalf("miss completed suspiciously fast: %d", doneAt)
	}
	m := s.Stats()
	if m.L1Misses != 1 || m.L2Misses != 1 || m.DRAMReqs != 1 {
		t.Fatalf("counters: %+v", m)
	}
}

func TestLoadHitAfterFillIsFast(t *testing.T) {
	s, w, cfg := testSystem()
	line := uint64(0x2000) << 7
	done := false
	s.LoadLine(0, line, func(int64) { done = true })
	runUntil(s, w, 100000, func() bool { return done })

	var hitAt int64 = -1
	issued := w.Now()
	if !s.LoadLine(0, line, func(c int64) { hitAt = c }) {
		t.Fatal("hit refused")
	}
	runUntil(s, w, 1000, func() bool { return hitAt >= 0 })
	if hitAt-issued != int64(cfg.L1HitLatency) {
		t.Fatalf("hit latency %d, want %d", hitAt-issued, cfg.L1HitLatency)
	}
	m := s.Stats()
	if m.L1Misses != 1 || m.L1Accesses != 2 {
		t.Fatalf("counters after hit: %+v", m)
	}
}

func TestMSHRMergingAvoidsDuplicateTraffic(t *testing.T) {
	s, w, _ := testSystem()
	line := uint64(0x3000) << 7
	completions := 0
	s.LoadLine(0, line, func(int64) { completions++ })
	s.LoadLine(0, line, func(int64) { completions++ })
	runUntil(s, w, 100000, func() bool { return completions == 2 })
	if completions != 2 {
		t.Fatal("merged waiters not all woken")
	}
	m := s.Stats()
	if m.DRAMReqs != 1 {
		t.Fatalf("merged miss sent %d DRAM requests, want 1", m.DRAMReqs)
	}
}

func TestCrossSMSharingHitsInL2(t *testing.T) {
	s, w, _ := testSystem()
	line := uint64(0x4000) << 7
	done := false
	s.LoadLine(0, line, func(int64) { done = true })
	runUntil(s, w, 100000, func() bool { return done })
	// SM 1 misses its own L1 but must hit L2: no new DRAM request.
	done = false
	s.LoadLine(1, line, func(int64) { done = true })
	runUntil(s, w, 100000, func() bool { return done })
	m := s.Stats()
	if m.DRAMReqs != 1 {
		t.Fatalf("L2 shared hit went to DRAM: %d reqs", m.DRAMReqs)
	}
	if m.L2Accesses != 2 || m.L2Misses != 1 {
		t.Fatalf("L2 counters: %+v", m)
	}
}

func TestMSHRExhaustionRefusesAndRecovers(t *testing.T) {
	s, w, cfg := testSystem()
	outstanding := 0
	accepted := 0
	for i := 0; ; i++ {
		ok := s.LoadLine(0, uint64(0x5000+i)<<7, func(int64) { outstanding-- })
		if !ok {
			break
		}
		outstanding++
		accepted++
		if accepted > cfg.L1MSHRs {
			t.Fatalf("accepted %d distinct misses with %d MSHRs", accepted, cfg.L1MSHRs)
		}
	}
	if accepted != cfg.L1MSHRs {
		t.Fatalf("accepted %d, want exactly %d", accepted, cfg.L1MSHRs)
	}
	runUntil(s, w, 200000, func() bool { return outstanding == 0 })
	if outstanding != 0 {
		t.Fatal("some misses never completed")
	}
	if !s.LoadLine(0, uint64(0x9000)<<7, func(int64) {}) {
		t.Fatal("MSHRs did not recover after drain")
	}
}

func TestStoreBufferBoundsOutstandingStores(t *testing.T) {
	s, w, cfg := testSystem()
	accepted := 0
	for i := 0; ; i++ {
		if !s.StoreLine(0, uint64(0xA000+i)<<7) {
			break
		}
		accepted++
		if accepted > cfg.StoreBufferPerSM {
			t.Fatalf("store buffer overflowed: %d", accepted)
		}
	}
	if accepted != cfg.StoreBufferPerSM {
		t.Fatalf("accepted %d stores, want %d", accepted, cfg.StoreBufferPerSM)
	}
	end := runUntil(s, w, 400000, func() bool { return s.OutstandingStores(0) == 0 })
	if end < 0 {
		t.Fatal("stores never drained")
	}
	if !s.StoreLine(0, uint64(0xB000)<<7) {
		t.Fatal("store buffer did not recover")
	}
}

func TestStoreEvictsL1Copy(t *testing.T) {
	s, w, _ := testSystem()
	line := uint64(0xC000) << 7
	done := false
	s.LoadLine(0, line, func(int64) { done = true })
	runUntil(s, w, 100000, func() bool { return done })
	s.StoreLine(0, line)
	// Next load must miss L1 (write-evict policy).
	before := s.Stats().L1Misses
	done = false
	s.LoadLine(0, line, func(int64) { done = true })
	runUntil(s, w, 100000, func() bool { return done })
	if s.Stats().L1Misses != before+1 {
		t.Fatal("store did not evict the L1 copy")
	}
}

func TestAtomicBypassesL1(t *testing.T) {
	s, w, _ := testSystem()
	line := uint64(0xD000) << 7
	done := false
	s.AtomicLine(0, line, func(int64) { done = true })
	runUntil(s, w, 100000, func() bool { return done })
	// The atomic's response must not have filled L1: a subsequent load
	// misses.
	missesBefore := s.Stats().L1Misses
	done = false
	s.LoadLine(0, line, func(int64) { done = true })
	runUntil(s, w, 100000, func() bool { return done })
	if s.Stats().L1Misses != missesBefore+1 {
		t.Fatal("atomic response filled L1")
	}
}

func TestDrainedReflectsActivity(t *testing.T) {
	s, w, _ := testSystem()
	if !s.Drained(0) {
		t.Fatal("fresh system not drained")
	}
	done := false
	s.LoadLine(0, 0xE000<<7, func(int64) { done = true })
	if s.Drained(w.Now()) {
		t.Fatal("system with in-flight load reports drained")
	}
	runUntil(s, w, 100000, func() bool { return done })
	// Let the wheel settle any trailing events.
	runUntil(s, w, 1000, func() bool { return w.Pending() == 0 })
	if !s.Drained(w.Now()) {
		t.Fatal("system not drained after completion")
	}
}

func TestPartitionInterleavingSpreadsLines(t *testing.T) {
	s, _, cfg := testSystem()
	counts := make([]int, cfg.L2Partitions)
	for i := 0; i < 64; i++ {
		counts[s.partition(uint64(i)*uint64(cfg.L1Line))]++
	}
	for p, c := range counts {
		if c != 64/cfg.L2Partitions {
			t.Fatalf("partition %d got %d of 64 lines", p, c)
		}
	}
}

func TestRowLocalityImprovesDRAM(t *testing.T) {
	// Sequential lines within one DRAM row should mostly row-hit;
	// lines scattered across rows should not.
	seq, wA, _ := testSystem()
	doneA := 0
	for i := 0; i < 16; i++ {
		// Same partition (stride = L1Line*partitions), same bank region.
		seq.LoadLine(0, uint64(i)*128*2, func(int64) { doneA++ })
	}
	runUntil(seq, wA, 400000, func() bool { return doneA == 16 })
	mA := seq.Stats()

	scat, wB, _ := testSystem()
	doneB := 0
	for i := 0; i < 16; i++ {
		scat.LoadLine(0, uint64(i)*(1<<21), func(int64) { doneB++ })
	}
	runUntil(scat, wB, 400000, func() bool { return doneB == 16 })
	mB := scat.Stats()

	if mA.DRAMRowHits <= mB.DRAMRowHits {
		t.Fatalf("sequential row hits %d not above scattered %d", mA.DRAMRowHits, mB.DRAMRowHits)
	}
}

// TestIdleSystemDoesNoTickWork checks the fast-forward bookkeeping that
// makes skipping idle memory cycles free: Tick is a no-op (no channel
// scan) unless DRAM work is queued, and NextEvent reports no horizon at
// all while the system is idle.
func TestIdleSystemDoesNoTickWork(t *testing.T) {
	s, w, _ := testSystem()
	// tickFor advances exactly n cycles regardless of activity (runUntil
	// requires its condition to eventually hold).
	tickFor := func(n int64) {
		end := w.Now() + n
		for c := w.Now() + 1; c <= end; c++ {
			w.Advance(c)
			s.Tick(c)
		}
	}
	if _, ok := s.NextEvent(w.Now()); ok {
		t.Fatal("idle system reported a DRAM horizon")
	}
	tickFor(1000)
	if s.TickScans != 0 {
		t.Fatalf("idle system scanned channels %d times, want 0", s.TickScans)
	}

	// A missing line must reach DRAM and make the scans start.
	var done bool
	if !s.LoadLine(0, 0x9000<<7, func(int64) { done = true }) {
		t.Fatal("LoadLine refused on idle system")
	}
	runUntil(s, w, 100000, func() bool { return done })
	if !done {
		t.Fatal("load never completed")
	}
	busy := s.TickScans
	if busy == 0 {
		t.Fatal("in-flight DRAM request caused no channel scans")
	}

	// Drained again: scans stop and the horizon disappears.
	tickFor(1000)
	if s.TickScans != busy {
		t.Fatalf("drained system kept scanning: %d -> %d", busy, s.TickScans)
	}
	if _, ok := s.NextEvent(w.Now()); ok {
		t.Fatal("drained system reported a DRAM horizon")
	}
}

// TestHorizonHeapMatchesChannelScan drives random load/store/atomic
// traffic and requires, every cycle, that the heap-tracked DRAM horizon
// NextEvent answers from equals a brute-force scan of every channel's
// own NextEvent — the horizon is refreshed only when a channel mutates,
// so a missed refresh would let the clock loop fast-forward past a grant.
func TestHorizonHeapMatchesChannelScan(t *testing.T) {
	s, w, _ := testSystem()
	rng := rand.New(rand.NewSource(11))
	nop := func(int64) {}
	issued := 0
	for c := int64(1); c <= 80000; c++ {
		w.Advance(c)
		s.Tick(c)
		if issued < 300 && rng.Intn(4) == 0 {
			sm := rng.Intn(2)
			// A small line pool forces row hits, row conflicts, MSHR
			// merges and L1/L2 reuse on top of cold misses.
			line := uint64(rng.Intn(256)) << 7
			switch rng.Intn(4) {
			case 0, 1:
				s.LoadLine(sm, line, nop)
			case 2:
				s.StoreLine(sm, line)
			default:
				s.AtomicLine(sm, line, nop)
			}
			issued++
		}
		got, ok := s.NextEvent(c)
		want, okWant := int64(0), false
		for _, ch := range s.chans {
			if at, ok := ch.NextEvent(c); ok && (!okWant || at < want) {
				want, okWant = at, true
			}
		}
		if ok != okWant || (ok && got != want) {
			t.Fatalf("cycle %d: heap horizon (%d,%v) != channel scan (%d,%v)", c, got, ok, want, okWant)
		}
	}
	if s.Stats().DRAMReqs == 0 {
		t.Fatal("traffic never reached DRAM")
	}
}
