package timing

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFireOrderWithinAndAcrossCycles(t *testing.T) {
	w := NewWheel()
	var got []int
	w.Schedule(5, func(int64) { got = append(got, 2) })
	w.Schedule(3, func(int64) { got = append(got, 0) })
	w.Schedule(5, func(int64) { got = append(got, 3) }) // same cycle, FIFO after first
	w.Schedule(4, func(int64) { got = append(got, 1) })
	w.Advance(10)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestEventReceivesItsCycle(t *testing.T) {
	w := NewWheel()
	var at int64
	w.Schedule(7, func(c int64) { at = c })
	w.Advance(7)
	if at != 7 {
		t.Fatalf("event saw cycle %d, want 7", at)
	}
	if w.Now() != 7 {
		t.Fatalf("Now() = %d, want 7", w.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	w := NewWheel()
	w.Advance(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at current cycle did not panic")
		}
	}()
	w.Schedule(10, func(int64) {})
}

func TestOverflowBeyondHorizon(t *testing.T) {
	w := NewWheel()
	fired := false
	w.Schedule(Horizon*3+17, func(int64) { fired = true })
	w.Advance(Horizon * 3)
	if fired {
		t.Fatal("overflow event fired early")
	}
	w.Advance(Horizon*3 + 17)
	if !fired {
		t.Fatal("overflow event never fired")
	}
	if w.Pending() != 0 {
		t.Fatalf("Pending() = %d after all events fired", w.Pending())
	}
}

func TestCascadedScheduling(t *testing.T) {
	// Events scheduling further events, including chains that hop
	// across the horizon boundary.
	w := NewWheel()
	count := 0
	var hop func(c int64)
	hop = func(c int64) {
		count++
		if count < 10 {
			w.Schedule(c+Horizon/2, hop)
		}
	}
	w.Schedule(1, hop)
	w.Advance(Horizon * 6)
	if count != 10 {
		t.Fatalf("chain fired %d times, want 10", count)
	}
}

func TestSameCycleLaterEventVisible(t *testing.T) {
	// An event firing at cycle c may schedule at c+1 and that event must
	// fire during the same Advance span.
	w := NewWheel()
	var order []string
	w.Schedule(2, func(c int64) {
		order = append(order, "first")
		w.Schedule(c+1, func(int64) { order = append(order, "second") })
	})
	w.Advance(3)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v", order)
	}
}

func TestPendingCount(t *testing.T) {
	w := NewWheel()
	for i := int64(1); i <= 100; i++ {
		w.Schedule(i*3, func(int64) {})
	}
	if w.Pending() != 100 {
		t.Fatalf("Pending() = %d, want 100", w.Pending())
	}
	w.Advance(150)
	if w.Pending() != 50 {
		t.Fatalf("Pending() = %d after half fired, want 50", w.Pending())
	}
}

func TestPropertyAllScheduledEventsFireExactlyOnce(t *testing.T) {
	f := func(delays []uint16) bool {
		w := NewWheel()
		fired := make([]int, len(delays))
		for i, d := range delays {
			at := int64(d)%(Horizon*2) + 1
			idx := i
			w.Schedule(at, func(int64) { fired[idx]++ })
		}
		w.Advance(Horizon*2 + 1)
		for _, f := range fired {
			if f != 1 {
				return false
			}
		}
		return w.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleAfter(t *testing.T) {
	w := NewWheel()
	w.Advance(100)
	fired := int64(0)
	w.ScheduleAfter(25, func(c int64) { fired = c })
	w.Advance(200)
	if fired != 125 {
		t.Fatalf("ScheduleAfter fired at %d, want 125", fired)
	}
}

// TestScheduleBatchMatchesSequential checks the batched-commit
// contract: one ScheduleBatch call must be indistinguishable from the
// same Schedule calls made one by one in slice order — same FIFO
// dispatch order, same Pending count — across in-ring targets, the
// horizon boundary and the overflow path, with singleton events
// interleaved into the same buckets.
func TestScheduleBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		a, b := NewWheel(), NewWheel()
		anchor := rng.Int63n(3 * Horizon)
		a.Advance(anchor)
		b.Advance(anchor)
		var gotA, gotB []int
		id := 0
		for step := 0; step < 20; step++ {
			var d int64
			switch rng.Intn(3) {
			case 0:
				d = 1 + rng.Int63n(16) // imminent
			case 1:
				d = 1 + rng.Int63n(Horizon-1) // anywhere in the ring
			default:
				d = Horizon + rng.Int63n(3*Horizon) // overflow path
			}
			at := anchor + d
			fns := make([]Event, rng.Intn(5))
			for i := range fns {
				k := id
				id++
				fns[i] = func(int64) { gotA = append(gotA, k) }
				b.Schedule(at, func(int64) { gotB = append(gotB, k) })
			}
			a.ScheduleBatch(at, fns)
			// A singleton on both wheels, so batches land in buckets that
			// already hold (and later receive) individual events.
			k := id
			id++
			a.Schedule(at, func(int64) { gotA = append(gotA, k) })
			b.Schedule(at, func(int64) { gotB = append(gotB, k) })
		}
		if a.Pending() != b.Pending() {
			t.Fatalf("trial %d: Pending %d vs %d", trial, a.Pending(), b.Pending())
		}
		end := anchor + 7*Horizon
		a.Advance(end)
		b.Advance(end)
		if a.Pending() != 0 || b.Pending() != 0 {
			t.Fatalf("trial %d: events left pending", trial)
		}
		if len(gotA) != len(gotB) {
			t.Fatalf("trial %d: fired %d vs %d", trial, len(gotA), len(gotB))
		}
		for i := range gotA {
			if gotA[i] != gotB[i] {
				t.Fatalf("trial %d: fire order diverged at %d: %v vs %v", trial, i, gotA, gotB)
			}
		}
	}
}
