// Package timing provides the event infrastructure of the simulator.
//
// The core clock loop is cycle-driven, but long-latency completions
// (cache fills, DRAM service, writebacks) are scheduled as future events.
// A bucketed timing wheel keeps scheduling and dispatch O(1) amortized:
// events within Horizon cycles land in a ring of per-cycle buckets, and
// the rare farther events go to an overflow slice that is re-examined as
// the wheel advances.
package timing

// Event is a callback fired at a specific cycle. Events fire in FIFO order
// within a cycle, which keeps the simulator deterministic.
type Event func(cycle int64)

// Horizon is the wheel span in cycles. Events scheduled at most Horizon-1
// cycles ahead take the fast path. It comfortably exceeds the longest
// single-hop latency in the memory system.
const Horizon = 4096

type deferred struct {
	at int64
	fn Event
}

// Wheel is a timing wheel anchored at the current cycle. The zero value is
// not usable; call NewWheel.
type Wheel struct {
	now      int64
	buckets  [][]Event // ring, indexed by cycle % Horizon
	overflow []deferred
	pending  int
	// seq counts Schedule and ScheduleBatch calls: two equal reads prove
	// nothing was scheduled in between (what a Train needs to know).
	seq uint64
}

// bucketSeed is the initial per-bucket capacity. Buckets are carved out
// of one shared slab so a fresh wheel costs two allocations instead of a
// growth chain per bucket; the few buckets that outgrow the seed
// reallocate individually. Eight fits the largest routine event batch —
// a thread-block launch schedules one i-buffer refill per warp (8 on the
// GTX480 geometry) into a single bucket — so steady-state TB churn does
// not regrow buckets as it walks the ring.
const bucketSeed = 8

// NewWheel returns a wheel positioned at cycle 0.
func NewWheel() *Wheel {
	buckets := make([][]Event, Horizon)
	slab := make([]Event, Horizon*bucketSeed)
	for i := range buckets {
		buckets[i] = slab[i*bucketSeed : i*bucketSeed : (i+1)*bucketSeed]
	}
	return &Wheel{buckets: buckets}
}

// Now returns the wheel's current cycle.
func (w *Wheel) Now() int64 { return w.now }

// Pending returns the number of scheduled-but-unfired events (a Train's
// batch counts as the one event that carries it).
func (w *Wheel) Pending() int { return w.pending }

// Schedule registers fn to fire at cycle at. Scheduling in the past or at
// the current cycle is a bug in the caller and panics: the wheel has
// already dispatched (or is dispatching) that cycle.
func (w *Wheel) Schedule(at int64, fn Event) {
	if at <= w.now {
		panic("timing: event scheduled at or before current cycle")
	}
	w.pending++
	w.seq++
	if at-w.now < Horizon {
		idx := at % Horizon
		w.buckets[idx] = append(w.buckets[idx], fn)
		return
	}
	w.overflow = append(w.overflow, deferred{at: at, fn: fn})
}

// ScheduleAfter registers fn to fire delay cycles after the current cycle.
// delay must be positive.
func (w *Wheel) ScheduleAfter(delay int64, fn Event) {
	w.Schedule(w.now+delay, fn)
}

// ScheduleBatch registers every event in fns to fire at cycle at,
// equivalent to calling Schedule(at, fn) for each element in slice
// order but with one bucket append for the whole run; because the events
// land in the bucket in slice order, FIFO dispatch order is identical to
// the sequential calls.
//
// Deprecated: no caller inside the simulator since the parallel tick was
// removed (DESIGN.md §12); kept only because bench/'s
// timing.schedule_batch driver calls it.
func (w *Wheel) ScheduleBatch(at int64, fns []Event) {
	if len(fns) == 0 {
		return
	}
	if at <= w.now {
		panic("timing: event scheduled at or before current cycle")
	}
	w.pending += len(fns)
	w.seq++
	if at-w.now < Horizon {
		idx := at % Horizon
		w.buckets[idx] = append(w.buckets[idx], fns...)
		return
	}
	for _, fn := range fns {
		w.overflow = append(w.overflow, deferred{at: at, fn: fn})
	}
}

// Advance moves the wheel to cycle c, firing every event scheduled in
// (Now, c] in cycle order. Callbacks may schedule further events, including
// events within the same cycle range still being advanced.
func (w *Wheel) Advance(c int64) {
	for w.now < c {
		if w.pending == 0 {
			// Nothing can fire in the remaining range (same-cycle
			// scheduling is forbidden), so the wheel teleports: every
			// bucket is empty and the overflow list is empty too.
			w.now = c
			return
		}
		w.now++
		w.refillFromOverflow()
		idx := w.now % Horizon
		// Events may append to this bucket while firing (same-cycle
		// scheduling is forbidden, so growth only happens for future laps;
		// re-slicing from the stored header each iteration stays correct
		// because fired entries are consumed by index).
		bucket := w.buckets[idx]
		for i := 0; i < len(bucket); i++ {
			fn := bucket[i]
			bucket[i] = nil
			w.pending--
			fn(w.now)
			bucket = w.buckets[idx]
		}
		w.buckets[idx] = bucket[:0]
	}
}

// refillFromOverflow moves overflow events that are now within the horizon
// into their buckets. Called once per advanced cycle; the overflow list is
// scanned only when non-empty, which is rare.
func (w *Wheel) refillFromOverflow() {
	if len(w.overflow) == 0 {
		return
	}
	kept := w.overflow[:0]
	for _, d := range w.overflow {
		if d.at-w.now < Horizon {
			w.buckets[d.at%Horizon] = append(w.buckets[d.at%Horizon], d.fn)
			continue
		}
		kept = append(kept, d)
	}
	w.overflow = kept
}
