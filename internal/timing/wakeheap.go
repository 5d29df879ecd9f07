package timing

// WakeHeap tracks the earliest wake-up cycle across a fixed set of
// sources: a horizon update is O(log n) and the min query O(1)
// amortized.
//
// Deletion is lazy: Set pushes a fresh entry and leaves the stale one
// in place; an entry is live only while it still matches cur[id], and
// Min pops dead entries as they surface. Stale entries are bounded by
// the number of premature wake-ups between pops, and a compaction
// rebuild kicks in if they ever pile up, so steady state allocates
// nothing.
//
// Deprecated: the simulator no longer uses it. Its only consumer was the
// global fast-forward (DESIGN.md §8.6), now removed; it stays only
// because bench/'s timing.wakeheap_set_min_ns row compiles against it.
// The next benchmark change drops that row and this type (ROADMAP item
// 2).
type WakeHeap struct {
	entries []wakeEntry // binary min-heap ordered by at
	cur     []int64     // live wake cycle per source; 0 = no timed wake
	scratch []wakeEntry // compaction buffer, reused
}

type wakeEntry struct {
	at int64
	id int
}

// NewWakeHeap returns a heap for source ids 0..n-1, none of them armed.
func NewWakeHeap(n int) *WakeHeap {
	return &WakeHeap{
		entries: make([]wakeEntry, 0, n),
		cur:     make([]int64, n),
		scratch: make([]wakeEntry, 0, n),
	}
}

// Set arms source id to wake at cycle at (at > 0). Setting the cycle the
// source is already armed for is a no-op, so callers can mirror state
// unconditionally every cycle without churning the heap.
func (h *WakeHeap) Set(id int, at int64) {
	if h.cur[id] == at {
		return
	}
	h.cur[id] = at
	h.entries = append(h.entries, wakeEntry{at: at, id: id})
	h.siftUp(len(h.entries) - 1)
	if len(h.entries) > 4*len(h.cur) && len(h.entries) >= 64 {
		h.compact()
	}
}

// Clear disarms source id (no timed wake). Its heap entry, if any, dies
// lazily.
func (h *WakeHeap) Clear(id int) {
	h.cur[id] = 0
}

// Min returns the earliest armed wake cycle, or ok=false when no source
// is armed. Dead entries encountered at the top are popped permanently.
func (h *WakeHeap) Min() (at int64, ok bool) {
	for len(h.entries) > 0 {
		top := h.entries[0]
		if h.cur[top.id] == top.at {
			return top.at, true
		}
		h.pop()
	}
	return 0, false
}

func (h *WakeHeap) pop() {
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	if last > 0 {
		h.siftDown(0)
	}
}

// compact rebuilds the heap from the live cur entries, dropping every
// stale one. Runs only when stale entries outnumber live sources 4:1,
// so its O(n) cost is amortized away by the pushes that got us here.
func (h *WakeHeap) compact() {
	h.scratch = h.scratch[:0]
	for id, at := range h.cur {
		if at != 0 {
			h.scratch = append(h.scratch, wakeEntry{at: at, id: id})
		}
	}
	h.entries = append(h.entries[:0], h.scratch...)
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *WakeHeap) siftUp(i int) {
	e := h.entries[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.entries[parent].at <= e.at {
			break
		}
		h.entries[i] = h.entries[parent]
		i = parent
	}
	h.entries[i] = e
}

func (h *WakeHeap) siftDown(i int) {
	e := h.entries[i]
	n := len(h.entries)
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && h.entries[r].at < h.entries[kid].at {
			kid = r
		}
		if h.entries[kid].at >= e.at {
			break
		}
		h.entries[i] = h.entries[kid]
		i = kid
	}
	h.entries[i] = e
}
