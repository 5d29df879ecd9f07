package timing

// Car is an event that can ride a Train: bound to its callback once, parked
// any number of times, one park at a time.
type Car struct {
	fn, walk Event // walk fires this car, then every car linked behind it
	next     *Car
}

// Bind sets the event c fires.
func (c *Car) Bind(fn Event) {
	c.fn = fn
	c.walk = func(cycle int64) {
		for m := c; m != nil; {
			// Unlink before firing: the event may park m again, heading a
			// new train that whatever parks next links behind.
			next := m.next
			m.next = nil
			m.fn(cycle)
			m = next
		}
	}
}

// Train coalesces runs of same-cycle events into one wheel event that fires
// them in exactly the order one Schedule per Park would: when a Park names
// the cycle of the previous one and Wheel.seq shows nothing was scheduled in
// between, the two events would be bucket neighbours, so the car is linked
// behind the previous one instead (DESIGN.md §8.3).
type Train struct {
	w    *Wheel
	at   int64  // cycle of the last Park
	seq  uint64 // w.seq right after the last Park that scheduled
	tail *Car
	// Events counts the wheel events Parks cost — observable for tests.
	Events int64
}

// NewTrain returns a Train scheduling on w.
func NewTrain(w *Wheel) *Train { return &Train{w: w} }

// Park registers c to fire at cycle at, like w.Schedule(at, c's event).
func (t *Train) Park(at int64, c *Car) {
	if w := t.w; at == t.at && w.seq == t.seq && at > w.now {
		t.tail.next = c
	} else {
		w.Schedule(at, c.walk)
		t.at, t.seq = at, w.seq
		t.Events++
	}
	t.tail = c
}
