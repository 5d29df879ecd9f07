// Admission control for the daemon's worker slots: one FIFO queue, the
// rule the paper's thread-block scheduler follows (the next TB goes to
// whichever SM frees a slot) and jobs.Dispatch follows for local and
// -workers runs. Only a simulation takes a slot: a job whose result is
// cached completes without one.
//
// Lifecycle of one admitted job:
//
//	admit(n)     reserves queue room for n jobs at batch admission
//	             (all-or-nothing; a full queue fast-fails the batch
//	             with 429 instead of absorbing unbounded work)
//	acquire(ctx) waits for a worker slot after a cache miss; the
//	             reservation converts into a slot grant or, on
//	             shutdown, an error
//	release()    returns the slot, granting it to the longest waiter
//	forfeit()    drops a reservation that will never reach acquire
//	             (cache hit, dedupe follower, key error, canceled
//	             pre-submit)
//
// Every reserved unit is returned exactly once, by acquire (grant or
// abandonment), or by forfeit.
package daemon

import (
	"context"
	"fmt"
	"sync"
)

// ticket is one waiter in the queue. The dispatcher signals a grant by
// setting granted and closing ready while holding the lock; a waiter
// that gives up first sets abandoned so release skips it.
type ticket struct {
	ready     chan struct{}
	granted   bool
	abandoned bool
}

// dispatcher owns the daemon's worker slots. All methods are safe for
// concurrent use.
type dispatcher struct {
	mu sync.Mutex
	// free counts unassigned worker slots. Invariant: free > 0 implies
	// no waiters (release grants before banking).
	free int
	// pending counts admitted jobs neither holding a slot nor settled
	// (queued in acquire, or still between admit and acquire or
	// forfeit); admit bounds it.
	pending  int
	maxQueue int
	// waiters are the acquire callers parked, FIFO.
	waiters []*ticket
}

// newDispatcher sizes a dispatcher: slots worker slots and maxQueue
// pending jobs.
func newDispatcher(slots, maxQueue int) *dispatcher {
	return &dispatcher{free: max(slots, 1), maxQueue: max(maxQueue, 1)}
}

// admit reserves queue room for n jobs. It returns false — and reserves
// nothing — when the queue cannot absorb all n: admission is
// all-or-nothing per batch so a half-admitted batch never occupies
// queue room while failing.
func (d *dispatcher) admit(n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pending+n > d.maxQueue {
		return false
	}
	d.pending += n
	return true
}

// forfeit returns one admitted unit that will never call acquire.
func (d *dispatcher) forfeit() {
	d.mu.Lock()
	d.pending--
	d.mu.Unlock()
}

// acquire blocks until a worker slot is granted or ctx, the daemon's
// own context, is done (shutdown). A nil error means the caller owns a
// slot and must release() it.
func (d *dispatcher) acquire(ctx context.Context) error {
	d.mu.Lock()
	if d.free > 0 {
		d.free--
		d.pending--
		d.mu.Unlock()
		return nil
	}
	t := &ticket{ready: make(chan struct{})}
	d.waiters = append(d.waiters, t)
	d.mu.Unlock()

	select {
	case <-t.ready:
		return nil
	case <-ctx.Done():
		if !d.abandon(t) {
			// Granted in the race window: hand the slot straight onward.
			d.release()
		}
		return fmt.Errorf("daemon: shutting down: %w", ctx.Err())
	}
}

// abandon marks t dead and settles its reservation. It reports whether
// the abandonment won the race: false means the ticket was already
// granted and the caller owns a slot it must put back.
func (d *dispatcher) abandon(t *ticket) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t.granted {
		return false
	}
	t.abandoned = true
	d.pending--
	return true
}

// release returns a slot, granting it to the longest waiter, or banking
// it when no one waits.
func (d *dispatcher) release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.waiters) > 0 {
		t := d.waiters[0]
		d.waiters = d.waiters[1:]
		if t.abandoned {
			continue // already settled its own reservation
		}
		t.granted = true
		d.pending--
		close(t.ready)
		return
	}
	d.free++
}

// depth reports the pending job count (for health and Retry-After).
func (d *dispatcher) depth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pending
}
