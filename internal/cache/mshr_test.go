package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMSHRAllocateMergeFill(t *testing.T) {
	m := NewMSHR(4, 3)
	var fired []int
	w := func(id int) func(int64) { return func(int64) { fired = append(fired, id) } }

	if got := m.Add(128, w(0)); got != Allocated {
		t.Fatalf("first Add = %v, want Allocated", got)
	}
	if got := m.Add(128, w(1)); got != Merged {
		t.Fatalf("second Add = %v, want Merged", got)
	}
	if !m.Pending(128) || m.InFlight() != 1 {
		t.Fatal("entry bookkeeping wrong")
	}
	m.Fill(128, 99)
	if m.Pending(128) || m.InFlight() != 0 {
		t.Fatal("entry survived Fill")
	}
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 1 {
		t.Fatalf("waiters fired %v, want [0 1] in registration order", fired)
	}
}

func TestMSHRMergeLimit(t *testing.T) {
	m := NewMSHR(4, 2)
	m.Add(128, func(int64) {})
	m.Add(128, func(int64) {})
	if got := m.Add(128, func(int64) {}); got != Refused {
		t.Fatalf("Add past merge limit = %v, want Refused", got)
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR(2, 8)
	m.Add(0, func(int64) {})
	m.Add(128, func(int64) {})
	if got := m.Add(256, func(int64) {}); got != Refused {
		t.Fatalf("Add past capacity = %v, want Refused", got)
	}
	// Merging into existing entries still works at capacity.
	if got := m.Add(0, func(int64) {}); got != Merged {
		t.Fatalf("merge at capacity = %v, want Merged", got)
	}
	m.Fill(0, 1)
	if got := m.Add(256, func(int64) {}); got != Allocated {
		t.Fatalf("Add after Fill freed a slot = %v, want Allocated", got)
	}
}

func TestMSHRCanAcceptMatchesAdd(t *testing.T) {
	f := func(ops []uint8) bool {
		m := NewMSHR(3, 2)
		for _, op := range ops {
			ln := uint64(op%5) * 128
			ok, _ := m.CanAccept(ln, 0)
			got := m.Add(ln, func(int64) {})
			if ok != (got != Refused) {
				return false
			}
			if m.InFlight() == 3 && got == Allocated && m.InFlight() > 3 {
				return false
			}
		}
		return m.InFlight() <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRCanAcceptExtraAllocs(t *testing.T) {
	m := NewMSHR(2, 8)
	m.Add(0, func(int64) {})
	// One free slot left: a hypothetical batch that already consumed it
	// must be refused.
	if ok, _ := m.CanAccept(128, 1); ok {
		t.Fatal("CanAccept ignored extraAllocs")
	}
	if ok, alloc := m.CanAccept(128, 0); !ok || !alloc {
		t.Fatal("CanAccept with free slot should allocate")
	}
}

func TestMSHRFillUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fill of unknown line did not panic")
		}
	}()
	NewMSHR(2, 2).Fill(0, 1)
}

func TestMSHRWaiterSeesFillCycle(t *testing.T) {
	m := NewMSHR(2, 2)
	var at int64
	m.Add(128, func(c int64) { at = c })
	m.Fill(128, 12345)
	if at != 12345 {
		t.Fatalf("waiter saw cycle %d, want 12345", at)
	}
}

// TestMSHRStampSoundAgainstMapModel drives seeded random Add/Fill traffic
// at a two-entry file whose lines mostly collide in one stamp class, keeps
// every refused request parked with its stamp, and checks the predicate
// against a plain map model after every operation: whenever StillRefused
// answers true, the line has no entry, the table is full (so Add would
// refuse it), and no Fill of the line happened since the stamp was taken.
// A merge-limit refusal must stamp zero and never be answered true.
//
// Mutation-checked: dropping the table-full half of StillRefused, or the
// generation bump in Add, each fail it within the first seeds.
func TestMSHRStampSoundAgainstMapModel(t *testing.T) {
	const capacity, merges = 2, 2
	// Four lines of one class and two outsiders.
	lines := []uint64{0}
	for l := uint64(128); len(lines) < 4; l += 128 {
		if stampClass(l) == stampClass(0) {
			lines = append(lines, l)
		}
	}
	for l := uint64(128); len(lines) < 6; l += 128 {
		if stampClass(l) != stampClass(0) {
			lines = append(lines, l)
		}
	}

	type parked struct {
		line, stamp uint64
		fills       int // fills[line] when the stamp was taken
	}
	stillTrue, zeroStamps := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMSHR(capacity, merges)
		model := map[uint64]int{} // line -> waiters
		fills := map[uint64]int{}
		var lot []parked

		add := func(line uint64) {
			got := m.Add(line, func(int64) {})
			n, pending := model[line]
			var want Outcome
			switch {
			case pending && n < merges:
				model[line]++
				want = Merged
			case !pending && len(model) < capacity:
				model[line] = 1
				want = Allocated
			default:
				want = Refused
			}
			if got != want {
				t.Fatalf("seed %d: Add(%d) = %v, model says %v", seed, line, got, want)
			}
			if got != Refused {
				return
			}
			st := m.Stamp(line)
			if (st == 0) != pending {
				t.Fatalf("seed %d: Stamp(%d) = %d with entry pending = %v", seed, line, st, pending)
			}
			if st == 0 {
				zeroStamps++
			}
			lot = append(lot, parked{line, st, fills[line]})
		}

		for step := 0; step < 400; step++ {
			if rng.Intn(3) == 0 && len(model) > 0 {
				// Fill a random pending line, picked by its position in
				// lines: ranging over the model map would not be seeded.
				var pend []uint64
				for _, l := range lines {
					if _, ok := model[l]; ok {
						pend = append(pend, l)
					}
				}
				l := pend[rng.Intn(len(pend))]
				m.Fill(l, int64(step))
				delete(model, l)
				fills[l]++
			} else {
				add(lines[rng.Intn(len(lines))])
			}

			kept := lot[:0]
			var retry []uint64
			for _, p := range lot {
				if m.StillRefused(p.line, p.stamp) {
					stillTrue++
					_, pending := model[p.line]
					ok, _ := m.CanAccept(p.line, 0)
					switch {
					case p.stamp == 0:
						t.Fatalf("seed %d step %d: zero stamp for line %d answered still-refused", seed, step, p.line)
					case pending || m.Pending(p.line):
						t.Fatalf("seed %d step %d: line %d still-refused but has an entry", seed, step, p.line)
					case len(model) < capacity || ok:
						t.Fatalf("seed %d step %d: line %d still-refused but the table has room", seed, step, p.line)
					case fills[p.line] != p.fills:
						t.Fatalf("seed %d step %d: line %d still-refused across a Fill", seed, step, p.line)
					}
					kept = append(kept, p)
				} else if rng.Intn(2) == 0 {
					retry = append(retry, p.line) // re-offer, as a stale re-poll does
				} else {
					kept = append(kept, p) // a stale stamp must stay void
				}
			}
			lot = kept
			for _, l := range retry {
				add(l)
			}
		}
	}
	if stillTrue < 1000 || zeroStamps < 100 {
		t.Fatalf("vacuous run: %d still-refused answers, %d merge-limit stamps", stillTrue, zeroStamps)
	}
}

// TestMSHRTableMatchesMapModel drives seeded random Add/Fill traffic at
// small files and checks every answer against a plain map model: Add's
// outcome, CanAccept's at each batch size, the waiters a Fill wakes and
// their order, and after every operation InFlight, Pending and Waiters of
// every line. The lines are picked by home slot — five on the last slot,
// so their probe runs wrap the table end, two each on the first two slots,
// which the wrapped runs push aside, and three on one middle slot — so
// every Fill deletes from a collision run and must shift the run back.
//
// Mutation-checked: `>` for `>=` in remove's backward-shift condition, and
// shifting every entry or none, each fail it at once.
func TestMSHRTableMatchesMapModel(t *testing.T) {
	const merges = 3
	var fills, shifts int
	for _, capacity := range []int{3, 4, 7} { // tables of 16, 16 and 32 slots
		probe := NewMSHR(capacity, merges)
		mask := len(probe.slots) - 1
		quota := map[int]int{mask: 5, 0: 2, 1: 2, mask / 2: 3}
		var lines []uint64
		for l := uint64(0); len(lines) < 12; l += 128 {
			if h := probe.home(l); quota[h] > 0 {
				quota[h]--
				lines = append(lines, l)
			}
		}
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := NewMSHR(capacity, merges)
			model := map[uint64][]int{}
			var fired []int
			next := 0
			for step := 0; step < 500; step++ {
				if rng.Intn(3) == 0 && len(model) > 0 {
					var pend []uint64
					for _, l := range lines {
						if _, ok := model[l]; ok {
							pend = append(pend, l)
						}
					}
					l := pend[rng.Intn(len(pend))]
					for i, s := range m.slots {
						if s.e != nil && m.home(s.line) != i {
							shifts++ // a displaced entry the Fill may have to move
						}
					}
					fired = fired[:0]
					m.Fill(l, int64(step))
					if fmt.Sprint(fired) != fmt.Sprint(model[l]) {
						t.Fatalf("cap %d seed %d step %d: Fill(%d) woke %v, model %v", capacity, seed, step, l, fired, model[l])
					}
					delete(model, l)
					fills++
				} else {
					l := lines[rng.Intn(len(lines))]
					ws, pending := model[l]
					for extra := 0; extra < 3; extra++ {
						ok, alloc := m.CanAccept(l, extra)
						wantOK := (pending && len(ws) < merges) || (!pending && len(model)+extra < capacity)
						if ok != wantOK || alloc != !pending {
							t.Fatalf("cap %d seed %d step %d: CanAccept(%d, %d) = %v, %v; model %v, %v",
								capacity, seed, step, l, extra, ok, alloc, wantOK, !pending)
						}
					}
					id := next
					next++
					got := m.Add(l, func(int64) { fired = append(fired, id) })
					want := Refused
					switch {
					case pending && len(ws) < merges:
						want = Merged
					case !pending && len(model) < capacity:
						want = Allocated
					}
					if got != want {
						t.Fatalf("cap %d seed %d step %d: Add(%d) = %v, model %v", capacity, seed, step, l, got, want)
					}
					if got != Refused {
						model[l] = append(ws, id)
					}
				}
				if m.InFlight() != len(model) {
					t.Fatalf("cap %d seed %d step %d: InFlight %d, model %d", capacity, seed, step, m.InFlight(), len(model))
				}
				for _, l := range lines {
					ws, pending := model[l]
					if m.Pending(l) != pending || m.Waiters(l) != len(ws) {
						t.Fatalf("cap %d seed %d step %d: line %d Pending %v Waiters %d, model %v %d",
							capacity, seed, step, l, m.Pending(l), m.Waiters(l), pending, len(ws))
					}
				}
			}
		}
	}
	if fills < 10000 || shifts < fills {
		t.Fatalf("vacuous run: %d fills, %d displaced entries seen before them", fills, shifts)
	}
}
