package cache

// MSHR models a miss-status holding register file: a bounded table of
// outstanding line fills, each merging a bounded number of waiters. A
// request for a line already in flight merges into its entry instead of
// generating new downstream traffic — the mechanism that lets dozens of
// warps miss on the same line while sending one memory request.
type MSHR struct {
	capacity  int
	maxMerges int
	// slots is an open-addressed line table: linear probing from a line's
	// home slot and backward-shift deletion, so a probe ends at the first
	// empty slot. Its power-of-two size, at least four times the capacity,
	// keeps probe runs short in a full file — L2 files stay full under
	// memory-bound kernels.
	slots []mshrSlot
	n     int // live entries
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

type mshrSlot struct {
	line uint64
	e    *mshrEntry // nil: empty slot
}

// NewMSHR builds an MSHR file with the given entry capacity and per-entry
// merge limit (including the allocating request).
func NewMSHR(capacity, maxMerges int) *MSHR {
	if capacity <= 0 || maxMerges <= 0 {
		panic("cache: MSHR capacity and merge limit must be positive")
	}
	size := 4
	for size < 4*capacity {
		size *= 2
	}
	return &MSHR{
		capacity:  capacity,
		maxMerges: maxMerges,
		slots:     make([]mshrSlot, size),
	}
}

// home is line's first probe position.
func (m *MSHR) home(line uint64) int {
	return int(line*0x9E3779B97F4A7C15>>32) & (len(m.slots) - 1)
}

// find returns the index of the slot holding line's entry, else of the
// empty slot where a probe for line ends (where Add would put it).
func (m *MSHR) find(line uint64) int {
	mask := len(m.slots) - 1
	for i := m.home(line); ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.e == nil || s.line == line {
			return i
		}
	}
}

// lookup returns line's live entry, or nil.
func (m *MSHR) lookup(line uint64) *mshrEntry { return m.slots[m.find(line)].e }

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
	if e := m.lookup(line); e != nil {
		return len(e.waiters) < m.maxMerges, false
	}
	return m.n+extraAllocs < m.capacity, true
}

// Add registers waiter for line and returns the outcome. The waiter fires
// when Fill is called for the line.
func (m *MSHR) Add(line uint64, waiter func(cycle int64)) Outcome {
	s := &m.slots[m.find(line)]
	if e := s.e; e != nil {
		if len(e.waiters) >= m.maxMerges {
			return Refused
		}
		e.waiters = append(e.waiters, waiter)
		m.Merged++
		return Merged
	}
	if m.n >= m.capacity {
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
	*s = mshrSlot{line, e}
	m.n++
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
	if m.lookup(line) != nil {
		return 0
	}
	return m.gen[stampClass(line)] + 1
}

// StillRefused reports, without a table lookup, that Add(line) is certain to
// be Refused as it was when stamp was taken: the stamp is still valid and
// the table is full. False means "ask Add".
func (m *MSHR) StillRefused(line, stamp uint64) bool {
	return stamp == m.gen[stampClass(line)]+1 && m.n >= m.capacity
}

// Fill completes the in-flight line: the entry is removed and every
// waiter is invoked (in registration order) with the fill cycle. Filling
// a line with no entry is a protocol bug and panics.
func (m *MSHR) Fill(line uint64, cycle int64) {
	i := m.find(line)
	e := m.slots[i].e
	if e == nil {
		panic("cache: MSHR fill for line with no entry")
	}
	m.remove(i)
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

// remove empties slot hole, then walks the probe run behind it, shifting
// back each entry whose home does not lie cyclically in (hole, its slot],
// so every entry stays reachable from its home without crossing an empty
// slot.
func (m *MSHR) remove(hole int) {
	mask := len(m.slots) - 1
	for j := (hole + 1) & mask; m.slots[j].e != nil; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].line))&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole] = mshrSlot{}
	m.n--
}

// InFlight returns the number of live entries.
func (m *MSHR) InFlight() int { return m.n }

// Pending reports whether line has a live entry.
func (m *MSHR) Pending(line uint64) bool { return m.lookup(line) != nil }

// Waiters returns how many requests line's live entry is tracking
// (including the allocating one), or 0 when no entry is in flight. The
// flight recorder reads it just before a Fill to attribute merge waits.
func (m *MSHR) Waiters(line uint64) int {
	if e := m.lookup(line); e != nil {
		return len(e.waiters)
	}
	return 0
}
