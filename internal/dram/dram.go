// Package dram models one GDDR channel per L2 partition with a
// First-Ready, First-Come-First-Served (FR-FCFS) scheduler — the DRAM
// scheduling policy from Table I of the paper.
//
// Each channel has a bounded request queue and a set of banks with one
// open row each. Every arbitration step picks, among requests whose bank
// is idle, the oldest request that hits its bank's open row; if none
// hits, the oldest such request (which then opens its row). Row hits are
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

	arrival int64
	bank    int
	row     uint64
}

// Channel is one DRAM channel.
type Channel struct {
	banks      int
	rowBytes   uint64
	rowHit     int64
	rowMiss    int64
	queueDepth int
	openRow    []uint64
	rowValid   []bool
	bankBusy   []int64 // cycle at which the bank becomes free
	queue      []*Request
	arrivalSeq int64
	// nextReady caches the earliest cycle at which a scan could grant,
	// set when a scan comes up empty (every queued request's bank busy);
	// Tick skips the queue walk until then. Enqueue resets it: a new
	// request may target a free bank.
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
	return &Channel{
		banks:      banks,
		rowBytes:   rowBytes,
		rowHit:     rowHit,
		rowMiss:    rowMiss,
		queueDepth: queueDepth,
		openRow:    make([]uint64, banks),
		rowValid:   make([]bool, banks),
		bankBusy:   make([]int64, banks),
	}
}

// locate computes the bank and row of a line address. Banks interleave at
// row granularity so consecutive rows map to different banks.
func (c *Channel) locate(line uint64) (bank int, row uint64) {
	row = line / c.rowBytes
	return int(row % uint64(c.banks)), row / uint64(c.banks)
}

// Enqueue offers a request; it returns false when the queue is full (the
// caller retries later — modeling upstream back-pressure).
func (c *Channel) Enqueue(r *Request) bool {
	if len(c.queue) >= c.queueDepth {
		return false
	}
	r.arrival = c.arrivalSeq
	c.arrivalSeq++
	r.bank, r.row = c.locate(r.Line)
	c.queue = append(c.queue, r)
	c.Reqs++
	c.nextReady = 0
	return true
}

// Busy reports whether any bank is still servicing at cycle.
func (c *Channel) Busy(cycle int64) bool {
	if len(c.queue) > 0 {
		return true
	}
	for _, b := range c.bankBusy {
		if b > cycle {
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
	if len(c.queue) == 0 || cycle < c.nextReady {
		return nil, 0
	}
	best := -1
	bestHit := false
	for i, r := range c.queue {
		if c.bankBusy[r.bank] > cycle {
			continue
		}
		hit := c.rowValid[r.bank] && c.openRow[r.bank] == r.row
		switch {
		case best == -1:
			best, bestHit = i, hit
		case hit && !bestHit:
			// First-ready: any row hit beats any row miss.
			best, bestHit = i, hit
		case hit == bestHit && c.queue[i].arrival < c.queue[best].arrival:
			best = i
		}
	}
	if best == -1 {
		// Every queued request's bank is busy; nothing can be granted
		// before the earliest of those banks frees.
		next := int64(1<<63 - 1)
		for _, r := range c.queue {
			if b := c.bankBusy[r.bank]; b < next {
				next = b
			}
		}
		c.nextReady = next
		return nil, 0
	}
	r := c.queue[best]
	c.queue = append(c.queue[:best], c.queue[best+1:]...)
	service := c.rowMiss
	if bestHit {
		service = c.rowHit
		c.RowHits++
	}
	if r.Span != nil {
		r.Span.Grant = cycle
		r.Span.RowHit = bestHit
	}
	c.openRow[r.bank] = r.row
	c.rowValid[r.bank] = true
	done := cycle + service
	c.bankBusy[r.bank] = done
	return r, done
}
