// Package dram models one GDDR channel per L2 partition with a
// First-Ready, First-Come-First-Served (FR-FCFS) scheduler — the DRAM
// scheduling policy from Table I of the paper.
//
// Each channel has a bounded request queue and a set of banks with one
// open row each. Every arbitration step picks, among requests whose bank
// is idle, the oldest request that hits its bank's open row; if none
// hits, the oldest such request (which then opens its row). The queue is
// kept per bank, in arrival order, so a step looks at one candidate per
// bank instead of scanning every queued request. Row hits are
// serviced in RowHit cycles, misses in RowMiss cycles; the channel data
// bus serializes one grant per arbitration cycle, which is saturated well
// below bank parallelism for the line sizes involved.
package dram

import "repro/internal/flight"

// Request is one line-sized DRAM transaction.
type Request struct {
	// Line is the line-aligned address.
	Line uint64
	// Write marks a write (no reply payload, but same bank timing).
	Write bool
	// Done is invoked at service completion; may be nil for writes.
	Done func(cycle int64)

	// Span, when non-nil, is the flight recorder's lifecycle span for
	// this transaction; Tick stamps the grant cycle and row-hit outcome
	// onto it.
	Span *flight.MemSpan
}

// entry is one queued request with its arrival order and row.
type entry struct {
	arrival int64
	row     uint64
	r       *Request
}

// bank is one bank's open row and its share of the channel queue.
type bank struct {
	busy int64 // cycle at which the bank becomes free
	// rank orders the bank's candidate — its oldest open-row hit, else its
	// oldest request — against the other banks': the arrival, plus missRank
	// for a miss; noRank when the queue is empty.
	rank     int64
	hit      int // index in queue of the oldest open-row hit, or -1
	queue    []entry
	openRow  uint64
	rowValid bool
}

const (
	missRank = 1 << 62 // every miss ranks after every hit
	noRank   = 1<<63 - 1
)

// Channel is one DRAM channel.
type Channel struct {
	rowBytes   uint64
	rowHit     int64
	rowMiss    int64
	queueDepth int
	banks      []bank
	queued     int // requests in all bank queues
	arrivalSeq int64
	// nextReady is at most the minimum busy over banks with queued
	// requests, the earliest cycle a step could grant; Tick returns at
	// once before it. A step that comes up empty sets it to that minimum,
	// and Enqueue lowers it to its bank's busy.
	nextReady int64
	// Reqs counts accepted requests; RowHits counts row-buffer hits.
	Reqs    int64
	RowHits int64
}

// NewChannel builds a channel. rowBytes must be a power of two and at
// least the line size used by callers.
func NewChannel(banks int, rowBytes uint64, rowHit, rowMiss int64, queueDepth int) *Channel {
	if banks <= 0 || rowBytes == 0 || rowBytes&(rowBytes-1) != 0 || rowHit <= 0 || rowMiss < rowHit || queueDepth <= 0 {
		panic("dram: invalid channel geometry")
	}
	c := &Channel{
		rowBytes:   rowBytes,
		rowHit:     rowHit,
		rowMiss:    rowMiss,
		queueDepth: queueDepth,
		banks:      make([]bank, banks),
	}
	for i := range c.banks {
		c.banks[i].hit, c.banks[i].rank = -1, noRank
	}
	return c
}

// locate computes the bank and row of a line address. Banks interleave at
// row granularity so consecutive rows map to different banks.
func (c *Channel) locate(line uint64) (bank int, row uint64) {
	row = line / c.rowBytes
	n := uint64(len(c.banks))
	return int(row % n), row / n
}

// Enqueue offers a request; it returns false when the queue is full (the
// caller retries later — modeling upstream back-pressure).
func (c *Channel) Enqueue(r *Request) bool {
	if c.queued >= c.queueDepth {
		return false
	}
	b, row := c.locate(r.Line)
	bk := &c.banks[b]
	if bk.hit < 0 && bk.rowValid && bk.openRow == row {
		bk.hit, bk.rank = len(bk.queue), c.arrivalSeq
	} else if len(bk.queue) == 0 {
		bk.rank = c.arrivalSeq + missRank
	}
	bk.queue = append(bk.queue, entry{c.arrivalSeq, row, r})
	c.arrivalSeq++
	c.queued++
	c.Reqs++
	c.nextReady = min(c.nextReady, bk.busy)
	return true
}

// Busy reports whether any bank is still servicing at cycle.
func (c *Channel) Busy(cycle int64) bool {
	if c.queued > 0 {
		return true
	}
	for i := range c.banks {
		if c.banks[i].busy > cycle {
			return true
		}
	}
	return false
}

// Tick performs one arbitration step at cycle: grants at most one request
// per call (the command/data bus serializes grants). Completion callbacks
// are scheduled by the caller via the returned (req, doneAt) pair;
// a nil request means nothing was granted.
func (c *Channel) Tick(cycle int64) (granted *Request, doneAt int64) {
	if c.queued == 0 || cycle < c.nextReady {
		return nil, 0
	}
	// Each idle bank offers its oldest hit, else its oldest request; any
	// hit beats any miss, then the oldest wins: the lowest rank.
	best, bestRank := -1, int64(noRank)
	for i := range c.banks {
		if bk := &c.banks[i]; bk.rank < bestRank && bk.busy <= cycle {
			best, bestRank = i, bk.rank
		}
	}
	if best == -1 {
		// Every bank with queued requests is busy; nothing can be granted
		// before the earliest of them frees.
		next := int64(noRank)
		for i := range c.banks {
			if bk := &c.banks[i]; len(bk.queue) > 0 && bk.busy < next {
				next = bk.busy
			}
		}
		c.nextReady = next
		return nil, 0
	}
	bk := &c.banks[best]
	hit := bestRank < missRank
	at, service := 0, c.rowMiss
	if hit {
		at, service = bk.hit, c.rowHit
		c.RowHits++
	}
	e := bk.queue[at]
	bk.queue = append(bk.queue[:at], bk.queue[at+1:]...)
	c.queued--
	if r := e.r; r.Span != nil {
		r.Span.Grant = cycle
		r.Span.RowHit = hit
	}
	bk.openRow, bk.rowValid = e.row, true
	bk.hit, bk.rank = -1, noRank
	for i := range bk.queue {
		if bk.queue[i].row == e.row {
			bk.hit, bk.rank = i, bk.queue[i].arrival
			break
		}
	}
	if bk.hit < 0 && len(bk.queue) > 0 {
		bk.rank = bk.queue[0].arrival + missRank
	}
	done := cycle + service
	bk.busy = done
	return e.r, done
}
