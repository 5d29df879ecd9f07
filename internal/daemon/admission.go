// Admission control and priority scheduling for the daemon's worker
// slots. The dispatcher replaces a bare semaphore channel with a
// bounded two-queue allocator: each priority class has its own pending
// queue with a hard depth limit, and free slots are handed out by
// weighted round-robin so a flood of bulk work can delay — but never
// starve or crowd out — interactive submissions.
//
// Lifecycle of one admitted job:
//
//	admit(class, n)  reserves queue room for n jobs at batch admission
//	                 (all-or-nothing; a full queue fast-fails the batch
//	                 with 429 instead of absorbing unbounded work)
//	acquire(...)     waits for a worker slot; the reservation converts
//	                 into a slot grant, a canceled wait, or shutdown
//	release()        returns the slot, granting it to the next waiter
//	forfeit(class)   drops a reservation that will never reach acquire
//	                 (dedupe follower, key error, canceled pre-submit)
//
// Every reserved unit is returned exactly once, by acquire (grant or
// abandonment), or by forfeit.
package daemon

import (
	"context"
	"fmt"
	"sync"
)

// class is a scheduling priority class.
type class int

const (
	// classInteractive is the low-latency class: paper-table reruns,
	// report generation, a human waiting at a terminal.
	classInteractive class = iota
	// classBulk is the throughput class: sweeps and batch experiments
	// that care about completion, not per-job latency.
	classBulk
	numClasses
)

func (c class) String() string {
	if c == classBulk {
		return PriorityBulk
	}
	return PriorityInteractive
}

// parseClass maps a wire priority string to a class. The empty string
// is interactive: untagged clients predate priority classes and were
// written as interactive tools.
func parseClass(s string) (class, error) {
	switch s {
	case "", PriorityInteractive:
		return classInteractive, nil
	case PriorityBulk:
		return classBulk, nil
	default:
		return 0, fmt.Errorf("daemon: unknown priority %q (want %q or %q)", s, PriorityInteractive, PriorityBulk)
	}
}

// CheckPriority reports whether the daemon would accept s as a batch or
// job priority, so a client can refuse a bad -priority before it runs.
func CheckPriority(s string) error {
	_, err := parseClass(s)
	return err
}

// ticket is one waiter in a dispatcher queue. The dispatcher signals a
// grant by setting granted and closing ready while holding the lock;
// a waiter that gives up first sets abandoned so release skips it.
type ticket struct {
	ready     chan struct{}
	granted   bool
	abandoned bool
	cl        class
}

// dispatcher owns the daemon's worker slots. All methods are safe for
// concurrent use.
type dispatcher struct {
	mu sync.Mutex
	// free counts unassigned worker slots. Invariant: free > 0 implies
	// both waiter queues are empty (release grants before banking).
	free int
	// waiting counts admitted-but-not-running jobs per class (queued in
	// acquire or still between admit and acquire); admit bounds it.
	waiting  [numClasses]int
	maxQueue int
	// waiters are the acquire callers parked per class, FIFO.
	waiters [numClasses][]*ticket
	// servedI counts consecutive interactive grants of the current
	// round-robin round; after weight of them one bulk waiter is served.
	servedI int
	weight  int
}

// newDispatcher sizes a dispatcher: slots worker slots, maxQueue
// pending jobs per class, and weight consecutive interactive grants
// per bulk grant.
func newDispatcher(slots, maxQueue, weight int) *dispatcher {
	if slots < 1 {
		slots = 1
	}
	if maxQueue < 1 {
		maxQueue = 1
	}
	if weight < 1 {
		weight = 1
	}
	return &dispatcher{free: slots, maxQueue: maxQueue, weight: weight}
}

// admit reserves queue room for n class-cl jobs. It returns false —
// and reserves nothing — when the class queue cannot absorb all n:
// admission is all-or-nothing per batch so a half-admitted batch never
// occupies queue room while failing.
func (d *dispatcher) admit(cl class, n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.waiting[cl]+n > d.maxQueue {
		return false
	}
	d.waiting[cl] += n
	return true
}

// forfeit returns one admitted unit that will never call acquire.
func (d *dispatcher) forfeit(cl class) {
	d.mu.Lock()
	d.dequeued(cl)
	d.mu.Unlock()
}

// dequeued decrements a class's waiting count, clamping at zero (a
// direct acquire in tests has no matching admit). Callers hold d.mu.
func (d *dispatcher) dequeued(cl class) {
	if d.waiting[cl] > 0 {
		d.waiting[cl]--
	}
}

// acquire blocks until a worker slot is granted, waitCtx is done (the
// submitter gave up), or baseCtx is done (daemon shutdown). A nil
// error means the caller owns a slot and must release() it.
func (d *dispatcher) acquire(waitCtx, baseCtx context.Context, cl class) error {
	d.mu.Lock()
	if d.free > 0 {
		d.free--
		d.dequeued(cl)
		d.mu.Unlock()
		return nil
	}
	t := &ticket{ready: make(chan struct{}), cl: cl}
	d.waiters[cl] = append(d.waiters[cl], t)
	d.mu.Unlock()

	select {
	case <-t.ready:
		return nil
	case <-waitCtx.Done():
		if d.abandon(t) {
			return waitCtx.Err()
		}
		// Granted in the race window: hand the slot straight onward.
		d.release()
		return waitCtx.Err()
	case <-baseCtx.Done():
		if d.abandon(t) {
			return fmt.Errorf("daemon: shutting down: %w", baseCtx.Err())
		}
		d.release()
		return fmt.Errorf("daemon: shutting down: %w", baseCtx.Err())
	}
}

// abandon marks t dead and settles its queue accounting. It reports
// whether the abandonment won the race: false means the ticket was
// already granted and the caller owns a slot it must put back.
func (d *dispatcher) abandon(t *ticket) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t.granted {
		return false
	}
	t.abandoned = true
	d.dequeued(t.cl)
	return true
}

// release returns a slot, granting it to the next waiter chosen by
// weighted round-robin, or banking it when no one waits.
func (d *dispatcher) release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		t := d.next()
		if t == nil {
			d.free++
			return
		}
		if t.abandoned {
			continue // already settled its own accounting
		}
		t.granted = true
		d.dequeued(t.cl)
		close(t.ready)
		return
	}
}

// next pops the next waiter per weighted round-robin: up to weight
// consecutive interactive grants, then one bulk grant. A class with no
// waiters cedes its turn. Callers hold d.mu.
func (d *dispatcher) next() *ticket {
	order := [numClasses]class{classInteractive, classBulk}
	if d.servedI >= d.weight {
		order = [numClasses]class{classBulk, classInteractive}
	}
	for _, cl := range order {
		if len(d.waiters[cl]) == 0 {
			continue
		}
		t := d.waiters[cl][0]
		d.waiters[cl] = d.waiters[cl][1:]
		if cl == classInteractive {
			d.servedI++
		} else {
			d.servedI = 0
		}
		return t
	}
	return nil
}

// depths reports the per-class waiting counts (for stats, health, and
// Retry-After estimates).
func (d *dispatcher) depths() (interactive, bulk int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.waiting[classInteractive], d.waiting[classBulk]
}
