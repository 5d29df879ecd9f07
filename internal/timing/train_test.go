package timing

import (
	"fmt"
	"math/rand"
	"testing"
)

// trainWorld is one of two twin wheels running the same actor program.
// With a train, actors park through it and a wheel event hands its batch to
// walk; without, every park is a plain Schedule of the actor's own event —
// the behaviour Train must reproduce.
type trainWorld struct {
	w      *Wheel
	train  *Train[int]
	seed   uint64
	own    []Event // without a train: each actor's own event
	parked []bool
	fires  []uint64
	parks  int
	log    []int64 // cycle<<16 | id, in firing order
	run    []int   // during a walk: +8 re-parks not yet handed to ParkAll
}

const ordinaryID = 1 << 12 // log ids of plain events start here

func newTrainWorld(coalesce bool, seed uint64, actors int) *trainWorld {
	x := &trainWorld{w: NewWheel(), seed: seed,
		own: make([]Event, actors), parked: make([]bool, actors), fires: make([]uint64, actors)}
	if coalesce {
		x.train = NewTrain(x.w, x.walk)
	}
	for id := range x.own {
		id := id
		x.own[id] = func(cycle int64) { x.act(id, cycle, x.decide(id, cycle)) }
	}
	return x
}

// parkAll parks a run of actors at cycle at: one ParkAll with a train, one
// Schedule each without.
func (x *trainWorld) parkAll(at int64, ids ...int) {
	x.parks += len(ids)
	for _, id := range ids {
		x.parked[id] = true
	}
	if x.train != nil {
		x.train.ParkAll(at, ids)
		return
	}
	for _, id := range ids {
		x.w.Schedule(at, x.own[id])
	}
}

func (x *trainWorld) ordinary(at int64, id int) {
	x.w.Schedule(at, func(cycle int64) { x.log = append(x.log, cycle<<16|int64(ordinaryID+id)) })
}

// walk fires a batch the way memsys's re-poll walk does: the actors whose
// next step is the plain +8 re-park are gathered into a run, which is parked
// with one ParkAll just before anything else is scheduled or parked, and at
// the end of the batch.
func (x *trainWorld) walk(cycle int64, batch []int) {
	for _, id := range batch {
		x.act(id, cycle, x.decide(id, cycle))
	}
	x.flush(cycle)
}

func (x *trainWorld) flush(cycle int64) {
	if len(x.run) > 0 {
		x.train.ParkAll(cycle+8, x.run)
		x.run = x.run[:0]
	}
}

// decide logs an actor's firing and draws its next step: a pure function of
// the seed, the actor and how often it has fired, so both worlds script the
// same program and any difference in the logs is a difference in order.
func (x *trainWorld) decide(id int, cycle int64) uint64 {
	if cycle != x.w.Now() {
		panic("event fired with a cycle other than the wheel's")
	}
	x.log = append(x.log, cycle<<16|int64(id))
	x.parked[id] = false
	h := (x.seed ^ uint64(id)<<32 ^ x.fires[id]) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	x.fires[id]++
	return h
}

func (x *trainWorld) act(id int, cycle int64, h uint64) {
	rerun := []int{id} // refused again: re-parked at +8
	switch h % 32 {
	case 0: // leaves the storm (until the test loop parks it again)
		return
	case 1: // got through, as an accepted re-poll does: schedules, no park
		x.settle(cycle)
		x.ordinary(cycle+1+int64(h>>8%300), id)
		return
	case 2: // schedules a +8 event mid-walk, then re-parks behind it
		x.settle(cycle)
		x.ordinary(cycle+8, id)
		x.parkAll(cycle+8, id)
		return
	case 3: // a different back-off
		x.settle(cycle)
		x.parkAll(cycle+1+int64(h>>8%16), id)
		return
	case 4: // re-parks, and drags an idle neighbour in behind itself
		if n := (id + 1) % len(x.own); !x.parked[n] {
			rerun = append(rerun, n)
		}
	case 5: // beyond the ring, through the overflow list
		if h>>8%8 == 0 {
			x.settle(cycle)
			x.parkAll(cycle+Horizon+int64(h>>16%64), id)
			return
		}
	}
	if x.train == nil {
		x.parkAll(cycle+8, rerun...)
		return
	}
	x.parks += len(rerun)
	for _, n := range rerun {
		x.parked[n] = true
	}
	x.run = append(x.run, rerun...)
}

// settle hands a walk's pending run to the train before the walk schedules
// or parks anything else.
func (x *trainWorld) settle(cycle int64) {
	if x.train != nil {
		x.flush(cycle)
	}
}

// TestTrainMatchesOneSchedulePerPark runs random interleavings of parks,
// ParkAll runs and ordinary Schedule calls on twin wheels — one coalescing
// through a Train whose walk re-parks futile runs with ParkAll, one
// scheduling every park by itself — and requires the identical (cycle,
// event) firing sequence, while the train really does coalesce. The test
// loop parks runs into buckets that ordinary events are landing in, so runs
// are split by intervening Schedules, and walks re-park into the batch
// being built for +8.
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
					continue
				}
				// A run of up to four idle actors from id on.
				var run []int
				for k := 0; k < 1+rng.Intn(4); k++ {
					if m := (id + k) % actors; !a.parked[m] && !b.parked[m] {
						run = append(run, m)
					}
				}
				a.parkAll(now+d, run...)
				b.parkAll(now+d, run...)
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

// TestTrainSplitsAtAnInterveningSchedule pins the batches themselves: a
// ParkAll run and a Park join one wheel event only while nothing else is
// scheduled; an ordinary event for the same cycle starts the next batch.
func TestTrainSplitsAtAnInterveningSchedule(t *testing.T) {
	w := NewWheel()
	var fired []string
	tr := NewTrain(w, func(cycle int64, batch []int) { fired = append(fired, fmt.Sprint(cycle, batch)) })
	tr.ParkAll(10, []int{1, 2})
	tr.Park(10, 3)
	w.Schedule(10, func(int64) { fired = append(fired, "ordinary") })
	tr.ParkAll(10, []int{4, 5})
	tr.ParkAll(10, nil)
	tr.Park(11, 6)
	w.Advance(11)
	if got, want := fmt.Sprint(fired), "[10 [1 2 3] ordinary 10 [4 5] 11 [6]]"; got != want || tr.Events != 3 {
		t.Fatalf("fired %s on %d wheel events, want %s on 3", got, tr.Events, want)
	}
}

// TestTrainRefusesThePast pins that a Park inherits Schedule's contract
// even when it would have linked: the last train's cycle has been reached.
func TestTrainRefusesThePast(t *testing.T) {
	w := NewWheel()
	fired := 0
	tr := NewTrain(w, func(_ int64, batch []int) { fired += len(batch) })
	tr.Park(5, 1)
	w.Advance(5)
	defer func() {
		if recover() == nil || fired != 1 {
			t.Fatalf("Park at the current cycle did not panic (fired %d)", fired)
		}
	}()
	tr.Park(5, 2)
}
