package core

// This file implements the two extensions the paper itself proposes:
//
//   - Sec. IV (future work): "dynamically enable or disable special
//     handling of barrier statements ... by profiling each application."
//     WithAdaptiveBarrierHandling profiles online, per SM: it alternates
//     short measurement epochs with barrier handling on and off,
//     compares the issue throughput, commits to the winner for a longer
//     window, then re-explores — the scalarProd pathology (Sec. IV,
//     -10% vs GTO, +11% with handling off) selects itself out.
//
//   - Sec. III-A (alternative progress definition): "one could use the
//     number of instructions executed by a TB which has completed and
//     use this to normalize progress across TBs."
//     WithNormalizedProgress ranks TBs by progress divided by the mean
//     size of completed TBs — an online estimate of the fraction of the
//     TB already done, a better SRTF surrogate when TBs are uneven.

// Adaptive-controller phases.
const (
	adaptMeasureOn uint8 = iota
	adaptMeasureOff
	adaptCommitted
)

// adaptiveState is the per-SM profile-and-commit controller.
type adaptiveState struct {
	epochLen   int64
	commitLen  int64
	mode       uint8
	nextSwitch int64
	snapshot   int64 // sm.WarpInstrs at the start of the current epoch
	onRate     int64 // instructions issued during the last ON epoch
}

// WithAdaptiveBarrierHandling enables the Sec. IV future-work mechanism.
// epochLen is the measurement-window length in cycles and commitLen the
// exploitation window; zero selects defaults derived from the re-sort
// threshold (4× and 16×).
func WithAdaptiveBarrierHandling(epochLen, commitLen int64) Option {
	return func(p *Policy) {
		p.adaptive = &adaptiveState{epochLen: epochLen, commitLen: commitLen}
	}
}

// WithNormalizedProgress enables the Sec. III-A normalized progress
// metric for the noWait/finishNoWait ordering.
func WithNormalizedProgress() Option {
	return func(p *Policy) { p.normalize = true }
}

// adaptTick advances the profile-and-commit state machine. Called from
// Order once per cycle (cheap guard inside).
func (p *Policy) adaptTick(cycle int64) {
	a := p.adaptive
	if a.epochLen <= 0 {
		a.epochLen = 4 * p.threshold
	}
	if a.commitLen <= 0 {
		a.commitLen = 16 * p.threshold
	}
	if a.nextSwitch == 0 {
		// First call: begin measuring with handling enabled.
		a.mode = adaptMeasureOn
		a.snapshot = p.sm.WarpInstrs
		a.nextSwitch = cycle + a.epochLen
		p.setBarrierHandling(true)
		return
	}
	if cycle < a.nextSwitch {
		return
	}
	switch a.mode {
	case adaptMeasureOn:
		a.onRate = p.sm.WarpInstrs - a.snapshot
		a.snapshot = p.sm.WarpInstrs
		a.mode = adaptMeasureOff
		a.nextSwitch = cycle + a.epochLen
		p.setBarrierHandling(false)
	case adaptMeasureOff:
		offRate := p.sm.WarpInstrs - a.snapshot
		a.mode = adaptCommitted
		a.nextSwitch = cycle + a.commitLen
		p.setBarrierHandling(a.onRate >= offRate)
	case adaptCommitted:
		a.mode = adaptMeasureOn
		a.snapshot = p.sm.WarpInstrs
		a.nextSwitch = cycle + a.epochLen
		p.setBarrierHandling(true)
	}
}

// setBarrierHandling switches the barrier special-handling on or off at
// run time, migrating TB list membership so the priority structure stays
// consistent: disabling flushes barrierWait TBs back into the rem group;
// enabling rescans resident TBs for in-progress barriers.
func (p *Policy) setBarrierHandling(on bool) {
	if p.barrierHandling == on {
		return
	}
	p.barrierHandling = on
	// Membership migrates below; the sorts only bump the generation when
	// they move something, so invalidate cached orders here explicitly.
	p.gen++
	if !on {
		for _, e := range p.barrier {
			if p.slowPhase {
				e.state = stFinishNoWait
			} else {
				e.state = stNoWait
			}
			p.rem = append(p.rem, e)
		}
		p.barrier = p.barrier[:0]
		p.sortRem()
		return
	}
	for _, tb := range p.sm.TBSlots {
		if tb == nil || tb.WarpsAtBarrier == 0 {
			continue
		}
		e := p.entries[tb]
		if e == nil || e.state == stBarrierWait || e.state == stFinishWait {
			continue
		}
		p.rem = remove(p.rem, e)
		e.state = stBarrierWait
		p.barrier = append(p.barrier, e)
		sortWarps(e.warps, true)
	}
	p.sortWaitGroup(p.barrier, warpsAtBarrier)
}
