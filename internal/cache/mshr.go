package cache

// MSHR models a miss-status holding register file: a bounded table of
// outstanding line fills, each merging a bounded number of waiters. A
// request for a line already in flight merges into its entry instead of
// generating new downstream traffic — the mechanism that lets dozens of
// warps miss on the same line while sending one memory request.
type MSHR struct {
	capacity  int
	maxMerges int
	entries   map[uint64]*mshrEntry
	// free recycles filled entries (and their waiter slices): an MSHR
	// allocates and fills entries at memory-traffic rate, so without
	// reuse the entry table dominates the simulator's allocation count.
	free []*mshrEntry
	// gen[c] counts the allocations for lines of stamp class c; see Stamp.
	gen [stampClasses]uint64

	// Merged counts requests absorbed into existing entries.
	Merged int64
	// Allocated counts new entries (downstream requests sent).
	Allocated int64
}

type mshrEntry struct {
	waiters []func(cycle int64)
}

// NewMSHR builds an MSHR file with the given entry capacity and per-entry
// merge limit (including the allocating request).
func NewMSHR(capacity, maxMerges int) *MSHR {
	if capacity <= 0 || maxMerges <= 0 {
		panic("cache: MSHR capacity and merge limit must be positive")
	}
	return &MSHR{
		capacity:  capacity,
		maxMerges: maxMerges,
		entries:   make(map[uint64]*mshrEntry, capacity),
	}
}

// Outcome of an MSHR lookup.
type Outcome uint8

const (
	// Allocated: a new entry was created; the caller must send the
	// downstream request.
	Allocated Outcome = iota
	// Merged: the request joined an in-flight entry; no downstream
	// traffic needed.
	Merged
	// Refused: table full or entry at its merge limit; the caller must
	// retry later (reservation failure / pipeline stall).
	Refused
)

// CanAccept reports whether a request for line would be Allocated or
// Merged, without committing. Used to test a whole warp instruction's
// lines atomically before committing any of them.
func (m *MSHR) CanAccept(line uint64, extraAllocs int) (ok, wouldAlloc bool) {
	if e, found := m.entries[line]; found {
		return len(e.waiters) < m.maxMerges, false
	}
	return len(m.entries)+extraAllocs < m.capacity, true
}

// Add registers waiter for line and returns the outcome. The waiter fires
// when Fill is called for the line.
func (m *MSHR) Add(line uint64, waiter func(cycle int64)) Outcome {
	if e, found := m.entries[line]; found {
		if len(e.waiters) >= m.maxMerges {
			return Refused
		}
		e.waiters = append(e.waiters, waiter)
		m.Merged++
		return Merged
	}
	if len(m.entries) >= m.capacity {
		return Refused
	}
	var e *mshrEntry
	if n := len(m.free); n > 0 {
		e = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		e = &mshrEntry{}
	}
	e.waiters = append(e.waiters[:0], waiter)
	m.entries[line] = e
	m.gen[stampClass(line)]++
	m.Allocated++
	return Allocated
}

// stampClasses is the number of generation counters a file keeps; lines
// hash onto them, so a collision can only void a stamp, never forge one.
const stampClasses = 64

func stampClass(line uint64) uint64 { return line * 0x9E3779B97F4A7C15 >> 58 }

// Stamp returns a token for a request Add has just Refused: zero when line
// has an entry (at its merge limit), else non-zero and valid until the next
// allocation in line's class — so while valid, no entry for line was
// allocated, hence none is pending and none was filled.
func (m *MSHR) Stamp(line uint64) uint64 {
	if _, found := m.entries[line]; found {
		return 0
	}
	return m.gen[stampClass(line)] + 1
}

// StillRefused reports, without a table lookup, that Add(line) is certain to
// be Refused as it was when stamp was taken: the stamp is still valid and
// the table is full. False means "ask Add".
func (m *MSHR) StillRefused(line, stamp uint64) bool {
	return stamp == m.gen[stampClass(line)]+1 && len(m.entries) >= m.capacity
}

// Fill completes the in-flight line: the entry is removed and every
// waiter is invoked (in registration order) with the fill cycle. Filling
// a line with no entry is a protocol bug and panics.
func (m *MSHR) Fill(line uint64, cycle int64) {
	e, found := m.entries[line]
	if !found {
		panic("cache: MSHR fill for line with no entry")
	}
	delete(m.entries, line)
	for _, w := range e.waiters {
		w(cycle)
	}
	// Recycle only after every waiter has run: a waiter may re-enter Add,
	// and the entry must not be on the freelist while its slice is still
	// being iterated.
	for i := range e.waiters {
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
	m.free = append(m.free, e)
}

// InFlight returns the number of live entries.
func (m *MSHR) InFlight() int { return len(m.entries) }

// Pending reports whether line has a live entry.
func (m *MSHR) Pending(line uint64) bool {
	_, found := m.entries[line]
	return found
}

// Waiters returns how many requests line's live entry is tracking
// (including the allocating one), or 0 when no entry is in flight. The
// flight recorder reads it just before a Fill to attribute merge waits.
func (m *MSHR) Waiters(line uint64) int {
	if e, found := m.entries[line]; found {
		return len(e.waiters)
	}
	return 0
}
