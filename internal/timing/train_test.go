package timing

import (
	"math/rand"
	"testing"
)

// trainWorld is one of two twin wheels running the same actor program.
// With a train, actors park through it; without, every park is a plain
// Schedule of the actor's own event — the behaviour Train must reproduce.
type trainWorld struct {
	w      *Wheel
	train  *Train
	seed   uint64
	cars   []Car
	parked []bool
	fires  []uint64
	parks  int
	log    []int64 // cycle<<16 | id, in firing order
}

const ordinaryID = 1 << 12 // log ids of plain events start here

func newTrainWorld(coalesce bool, seed uint64, actors int) *trainWorld {
	x := &trainWorld{w: NewWheel(), seed: seed,
		cars: make([]Car, actors), parked: make([]bool, actors), fires: make([]uint64, actors)}
	if coalesce {
		x.train = NewTrain(x.w)
	}
	for id := range x.cars {
		id := id
		x.cars[id].Bind(func(cycle int64) { x.fire(id, cycle) })
	}
	return x
}

func (x *trainWorld) park(at int64, id int) {
	x.parks++
	x.parked[id] = true
	if x.train != nil {
		x.train.Park(at, &x.cars[id])
	} else {
		x.w.Schedule(at, x.cars[id].fn)
	}
}

func (x *trainWorld) ordinary(at int64, id int) {
	x.w.Schedule(at, func(cycle int64) { x.log = append(x.log, cycle<<16|int64(ordinaryID+id)) })
}

// fire is an actor's event. What it does next is a pure function of the
// seed, the actor and how often it has fired, so both worlds script the
// same program and any difference in the logs is a difference in order.
func (x *trainWorld) fire(id int, cycle int64) {
	if cycle != x.w.Now() {
		panic("event fired with a cycle other than the wheel's")
	}
	x.log = append(x.log, cycle<<16|int64(id))
	x.parked[id] = false
	h := (x.seed ^ uint64(id)<<32 ^ x.fires[id]) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	x.fires[id]++
	switch h % 32 {
	case 0: // leaves the storm (until the driver parks it again)
	case 1: // got through, as an accepted re-poll does: schedules, no park
		x.ordinary(cycle+1+int64(h>>8%300), id)
	case 2: // schedules a +8 event mid-walk, then re-parks behind it
		x.ordinary(cycle+8, id)
		x.park(cycle+8, id)
	case 3: // a different back-off
		x.park(cycle+1+int64(h>>8%16), id)
	case 4: // re-parks, and drags an idle neighbour in behind itself
		x.park(cycle+8, id)
		if n := (id + 1) % len(x.cars); !x.parked[n] {
			x.park(cycle+8, n)
		}
	case 5: // beyond the ring, through the overflow list
		if h>>8%8 == 0 {
			x.park(cycle+Horizon+int64(h>>16%64), id)
			break
		}
		fallthrough
	default: // refused again: the head of a walk is re-parked during it
		x.park(cycle+8, id)
	}
}

// TestTrainMatchesOneSchedulePerPark runs random interleavings of parks
// and ordinary Schedule calls on twin wheels — one coalescing through a
// Train, one scheduling every park by itself — and requires the identical
// (cycle, event) firing sequence, while the train really does coalesce.
func TestTrainMatchesOneSchedulePerPark(t *testing.T) {
	const actors = 120
	var parks, events int64
	for trial := uint64(1); trial <= 60; trial++ {
		a, b := newTrainWorld(true, trial, actors), newTrainWorld(false, trial, actors)
		rng := rand.New(rand.NewSource(int64(trial)))
		now := rng.Int63n(3 * Horizon) // random anchor: bucket indices wrap mid-ring
		a.w.Advance(now)
		b.w.Advance(now)
		for step := 0; step < 3000; step++ {
			now += 1 + int64(rng.Intn(3))
			a.w.Advance(now)
			b.w.Advance(now)
			for n := rng.Intn(4); n > 0; n-- {
				id, d := rng.Intn(actors), int64(8)
				if rng.Intn(4) == 0 {
					d = 1 + rng.Int63n(12)
				}
				if rng.Intn(3) == 0 {
					// A plain event, often into a bucket a train is building in.
					a.ordinary(now+d, id)
					b.ordinary(now+d, id)
				} else if !a.parked[id] && !b.parked[id] {
					a.park(now+d, id)
					b.park(now+d, id)
				}
			}
		}
		now += 3 * Horizon
		a.w.Advance(now)
		b.w.Advance(now)
		if len(a.log) != len(b.log) || a.parks != b.parks {
			t.Fatalf("trial %d: %d firings and %d parks with the train, %d and %d without",
				trial, len(a.log), a.parks, len(b.log), b.parks)
		}
		for i := range a.log {
			if a.log[i] != b.log[i] {
				t.Fatalf("trial %d: firing %d is event %d at cycle %d with the train, event %d at cycle %d without",
					trial, i, a.log[i]&0xffff, a.log[i]>>16, b.log[i]&0xffff, b.log[i]>>16)
			}
		}
		parks += int64(a.parks)
		events += a.train.Events
	}
	t.Logf("%d parks rode %d wheel events", parks, events)
	if events*2 > parks {
		t.Fatalf("%d parks cost %d wheel events: the train barely coalesces, the test proves little", parks, events)
	}
}

// TestTrainRefusesThePast pins that a Park inherits Schedule's contract
// even when it would have linked: the last train's cycle has been reached.
func TestTrainRefusesThePast(t *testing.T) {
	w := NewWheel()
	tr := NewTrain(w)
	var a, b Car
	fired := 0
	a.Bind(func(int64) { fired++ })
	b.Bind(func(int64) { fired++ })
	tr.Park(5, &a)
	w.Advance(5)
	defer func() {
		if recover() == nil || fired != 1 {
			t.Fatalf("Park at the current cycle did not panic (fired %d)", fired)
		}
	}()
	tr.Park(5, &b)
}
