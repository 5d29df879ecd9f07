package timing

// Train coalesces runs of same-cycle events that carry a value of type T
// into one wheel event, which hands its whole batch to fire in exactly the
// order one Schedule per Park would: when a Park names the cycle of the
// previous one and Wheel.seq shows nothing was scheduled in between, the two
// events would be bucket neighbours, so the value joins the previous batch
// instead (DESIGN.md §8.3).
type Train[T any] struct {
	w    *Wheel
	fire func(cycle int64, batch []T)
	at   int64  // cycle of the last Park
	seq  uint64 // w.seq right after the last Park that scheduled
	tail *trainBatch[T]
	free *trainBatch[T]
	// Events counts the wheel events Parks cost — observable for tests.
	Events int64
}

// trainBatch is one wheel event's values; batches and their slices are
// recycled once fired, so a steady train allocates nothing.
type trainBatch[T any] struct {
	vals []T
	ev   Event // bound once: fires vals, then recycles the batch
	next *trainBatch[T]
}

// NewTrain returns a Train scheduling on w; fire receives each wheel
// event's batch in park order. The batch is valid only during the call.
func NewTrain[T any](w *Wheel, fire func(cycle int64, batch []T)) *Train[T] {
	return &Train[T]{w: w, fire: fire}
}

// Park registers v to fire at cycle at, like w.Schedule(at, v's event).
func (t *Train[T]) Park(at int64, v T) {
	b := t.batch(at)
	b.vals = append(b.vals, v)
}

// ParkAll parks every value of run at cycle at, in run order: the same as
// one Park each, since nothing is scheduled in between.
func (t *Train[T]) ParkAll(at int64, run []T) {
	if len(run) > 0 {
		b := t.batch(at)
		b.vals = append(b.vals, run...)
	}
}

// batch returns the batch a park at cycle at joins: the last one, or a new
// wheel event when anything was scheduled since or at names another cycle.
func (t *Train[T]) batch(at int64) *trainBatch[T] {
	if w := t.w; at != t.at || w.seq != t.seq || at <= w.now {
		b := t.free
		if b != nil {
			t.free = b.next
		} else {
			b = &trainBatch[T]{}
			b.ev = func(cycle int64) {
				t.fire(cycle, b.vals)
				b.vals = b.vals[:0]
				b.next = t.free
				t.free = b
			}
		}
		w.Schedule(at, b.ev)
		t.at, t.seq, t.tail = at, w.seq, b
		t.Events++
	}
	return t.tail
}
