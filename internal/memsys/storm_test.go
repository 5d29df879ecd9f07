package memsys

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/timing"
)

// The retry storm: 24 SMs with two L1 MSHRs each push a seeded stream of
// loads, atomics and stores at two L2 partitions whose MSHR files hold two
// entries, so up to 48 reads compete for four L2 entries and most of them
// sit in the refused-and-re-polling state for most of the run — the regime
// DESIGN.md §8.3's memory-side rows are about.

const (
	stormSMs      = 24
	stormOpsPerSM = 250
)

type stormOp struct {
	kind int // 0 load, 1 atomic, 2 store
	line uint64
}

// stormResult is everything the storm observes from outside the System.
type stormResult struct {
	sys   *System
	hash  uint64 // FNV-1a over every (request, delivery cycle) pair, in delivery order
	end   int64  // cycle the last request completed
	stats stats.MemStats
}

// runStorm drives the stream to completion. Every SM offers its next
// operation each cycle until accepted, in SM order, the way LD/ST units do.
func runStorm(tb testing.TB, seed int64) stormResult {
	cfg := config.GTX480()
	cfg.NumSMs = stormSMs
	cfg.L2Partitions = 2
	cfg.L2Size = 256 * 1024
	cfg.L1MSHRs = 2
	if err := cfg.Validate(); err != nil {
		tb.Fatal(err)
	}
	w := timing.NewWheel()
	s := New(cfg, w)

	rng := rand.New(rand.NewSource(seed))
	ops := make([][]stormOp, stormSMs)
	for sm := range ops {
		ops[sm] = make([]stormOp, stormOpsPerSM)
		for i := range ops[sm] {
			op := &ops[sm][i]
			switch k := rng.Intn(20); {
			case k < 12:
				op.kind = 0
			case k < 15:
				op.kind = 1
			default:
				op.kind = 2
			}
			if rng.Intn(4) == 0 {
				// A small pool shared by every SM: L2 hits, L2 MSHR merges
				// and a waiter that allocates a line others are parked on.
				op.line = uint64(rng.Intn(48)) << 7
			} else {
				op.line = uint64(1<<20+rng.Intn(1<<16)) << 7
			}
		}
	}

	h := fnv.New64a()
	var buf [12]byte
	outstanding := 0
	record := func(id uint32, cycle int64) {
		binary.LittleEndian.PutUint32(buf[:4], id)
		binary.LittleEndian.PutUint64(buf[4:], uint64(cycle))
		h.Write(buf[:])
		outstanding--
	}
	for sm := 0; sm < stormSMs; sm++ {
		sm := sm
		s.OnStoreRelease(sm, func() { record(^uint32(sm), w.Now()) })
	}

	next := make([]int, stormSMs)
	remaining := stormSMs * stormOpsPerSM
	var end int64
	for c := int64(1); remaining > 0 || outstanding > 0; c++ {
		if c > 5_000_000 {
			tb.Fatalf("storm did not drain: %d unissued, %d outstanding", remaining, outstanding)
		}
		w.Advance(c)
		s.Tick(c)
		for sm := 0; sm < stormSMs; sm++ {
			if next[sm] == stormOpsPerSM {
				continue
			}
			op := ops[sm][next[sm]]
			id := uint32(sm*stormOpsPerSM + next[sm])
			done := func(cycle int64) { record(id, cycle) }
			var ok bool
			switch op.kind {
			case 0:
				ok = s.LoadLine(sm, op.line, done)
			case 1:
				ok = s.AtomicLine(sm, op.line, done)
			default:
				ok = s.StoreLine(sm, op.line)
			}
			if ok {
				next[sm]++
				remaining--
				outstanding++
			}
		}
		end = c
	}
	return stormResult{sys: s, hash: h.Sum64(), end: end, stats: s.Stats()}
}

// TestRetryStormGolden pins the storm's every delivery cycle and counter.
// The pins were generated on the commit before refused L2 re-polls became
// stamp checks riding coalesced wheel events, so they hold that change —
// and any later one — to bit-identical timing and accounting.
func TestRetryStormGolden(t *testing.T) {
	const (
		wantHash = uint64(0xf150ae6aabb32351)
		wantEnd  = int64(98496)
	)
	wantStats := stats.MemStats{L1Accesses: 3577, L1Misses: 3350, L2Accesses: 415264, L2Misses: 414032, DRAMReqs: 4522, DRAMRowHits: 26}
	r := runStorm(t, 14)
	if r.hash != wantHash || r.end != wantEnd || r.stats != wantStats {
		t.Fatalf("storm drifted:\n got hash %#x end %d stats %+v\nwant hash %#x end %d stats %+v",
			r.hash, r.end, r.stats, wantHash, wantEnd, wantStats)
	}

	// The storm must actually be one, and must be cheap: re-polls dwarf the
	// reads that cause them, ride far fewer wheel events than there are
	// re-polls, and all but a sliver are settled by the stamp (every l2Read
	// beyond a read's first arrival is a re-poll that took the full probe).
	s := r.sys
	var reads int64
	for _, m := range s.l1mshr {
		reads += m.Allocated
	}
	fullProbes := s.L2Probes - reads
	t.Logf("%d reads, %d re-polls (%d full probes) on %d wheel events", reads, s.L2Repolls, fullProbes, s.l2retry.Events)
	if s.L2Repolls < 50*reads {
		t.Errorf("only %d re-polls for %d reads: the L2 MSHR files did not stay full", s.L2Repolls, reads)
	}
	if s.L2Repolls < 4*s.l2retry.Events {
		t.Errorf("%d re-polls needed %d wheel events, want at least 4 per event", s.L2Repolls, s.l2retry.Events)
	}
	if fullProbes < 0 || fullProbes*20 > s.L2Repolls {
		t.Errorf("%d of %d re-polls ran the full probe, want under 5%%", fullProbes, s.L2Repolls)
	}
}

// TestCheapRepollSkipsTheProbe fills one partition's MSHR file from SM 0,
// gets a third read refused, and watches its re-polls while DRAM is still
// busy: each must count as an L2 access and miss without probing anything.
func TestCheapRepollSkipsTheProbe(t *testing.T) {
	cfg := config.GTX480()
	cfg.NumSMs = 2
	cfg.L2Partitions = 1
	cfg.L2Size = 128 * 1024
	cfg.L1MSHRs = 2
	w := timing.NewWheel()
	s := New(cfg, w)
	nop := func(int64) {}
	for i, sm := range []int{0, 0, 1} {
		if !s.LoadLine(sm, uint64(0x7000+i)<<7, nop) {
			t.Fatalf("load %d refused at L1", i)
		}
	}
	runUntil(s, w, 10000, func() bool { return s.L2Repolls == 1 })
	probes, before := s.L2Probes, s.Stats()
	if probes != 3 || s.l2mshr[0].InFlight() != 2 {
		t.Fatalf("set-up: %d probes, %d entries in flight; want 3 and 2", probes, s.l2mshr[0].InFlight())
	}
	runUntil(s, w, 10000, func() bool { return s.L2Repolls == 6 })
	after := s.Stats()
	if s.L2Probes != probes {
		t.Fatalf("five stamped re-polls ran %d probes", s.L2Probes-probes)
	}
	if after.L2Accesses != before.L2Accesses+5 || after.L2Misses != before.L2Misses+5 {
		t.Fatalf("five re-polls moved L2 counters %+v -> %+v, want +5 accesses and misses", before, after)
	}
	// Once an entry fills the stamp is void again and the read gets through.
	if runUntil(s, w, 100000, func() bool { return s.Drained(w.Now()) }) < 0 {
		t.Fatal("refused read never completed")
	}
	if s.L2Probes != probes+1 {
		t.Fatalf("%d probes after the refusal, want exactly the one that was accepted", s.L2Probes-probes)
	}
}
