package gpu

import "sync/atomic"

// Heartbeat is a low-frequency snapshot of one running simulation,
// delivered to the process-wide listener registered with SetHeartbeat.
// When no listener is registered the loop pays one predictable branch
// per iteration, and the listener can never alter simulation state — it
// only reads counters.
//
// Deprecated: no product code listens; the benchmark harness in bench/
// is the only caller of SetHeartbeat.
type Heartbeat struct {
	// Kernel and Scheduler identify the run.
	Kernel, Scheduler string
	// Cycle is the current simulated cycle.
	Cycle int64
	// ResidentTBs and PendingTBs describe TB occupancy at this cycle.
	ResidentTBs int
	PendingTBs  int
	// Iters counts top-level loop iterations since the previous
	// heartbeat of this run, a delta. The loop single-steps, so the
	// deltas of one run sum to its cycle count.
	Iters int64
	// Final marks the run-completion heartbeat.
	Final bool

	// Deprecated: telemetry of the removed intra-simulation parallel
	// tick (DESIGN.md §12) and global fast-forward (DESIGN.md §8.6).
	// Read only by bench/'s decorator, which this tree may not edit;
	// SMWorkers always reports 1 and the other fields are always zero.
	// A later benchmark PR drops the group.
	FFJumps     int64
	SMWorkers   int
	ParTicks    int64
	SerialTicks int64
	TickNS      int64
	CommitNS    int64
	LaneOps     int64
	LaneDrains  int64
}

// hbConfig pairs the listener with its sampling interval so both swap
// atomically.
type hbConfig struct {
	fn    func(Heartbeat)
	every int64
}

var hbState atomic.Pointer[hbConfig]

// DefaultHeartbeatEvery is the sampling interval SetHeartbeat applies
// when every <= 0: one heartbeat per 2^20 simulated cycles, a few per
// second of wall time on typical kernels — invisible in profiles.
//
// Deprecated: used only through SetHeartbeat, which only bench/ calls.
const DefaultHeartbeatEvery = 1 << 20

// SetHeartbeat registers fn as the process-wide simulation heartbeat
// listener, sampled every `every` cycles (<= 0 means
// DefaultHeartbeatEvery); fn nil unregisters. Runs already in flight
// keep the listener they started with. fn may be called concurrently
// from independent simulations and must not block; it must not (and
// cannot, through the Heartbeat value) mutate simulation state, so
// results remain bit-identical with or without a listener.
//
// Deprecated: it replaces any other listener in the process and has no
// product caller; it survives only because the benchmark harness in
// bench/ calls it.
func SetHeartbeat(fn func(Heartbeat), every int64) {
	if fn == nil {
		hbState.Store(nil)
		return
	}
	if every <= 0 {
		every = DefaultHeartbeatEvery
	}
	hbState.Store(&hbConfig{fn: fn, every: every})
}
