// Package gpu assembles the full simulated GPU — SM array, global
// Thread Block Scheduler (gigathread engine), memory hierarchy, clock —
// and runs kernel launches to completion.
package gpu

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Options tune one simulation run.
type Options struct {
	// Timeline records per-TB lifetimes (Fig. 2 data).
	Timeline bool
	// SampleEvery, when positive, records a stats.Sample of the
	// aggregate counters every SampleEvery cycles (phase analysis).
	SampleEvery int64
	// MaxCycles aborts a runaway simulation; 0 means the default.
	MaxCycles int64
	// StallWindow aborts when no SM issues for this many consecutive
	// cycles (deadlock watchdog); 0 means the default.
	StallWindow int64
	// Flight, when non-nil, attaches a flight recorder to the run
	// (per-warp progress timelines, memory-request lifecycle spans,
	// scheduler-decision events — see internal/flight). The recorder
	// only reads simulation state, so results are byte-identical with
	// or without it, and the json:"-" tag keeps it out of result-cache
	// keys — an execution-observability switch, never cache identity.
	// A recorder captures exactly one run.
	Flight *flight.Recorder `json:"-"`
}

const (
	defaultMaxCycles   = 200_000_000
	defaultStallWindow = 2_000_000
)

// OrderTracer is implemented by scheduling policies that record
// Table IV-style priority-order samples (PRO does, on SM 0).
type OrderTracer interface {
	OrderSamples() []stats.OrderSample
}

// ctxCheckInterval is how many cycles pass between context checks in
// RunContext's cycle loop. A non-blocking poll every 4096 cycles is
// invisible in profiles (each cycle simulates 14 SMs plus the memory
// system) yet bounds the abort delay to well under a millisecond of wall
// time.
const ctxCheckInterval = 4096

// Run simulates launch on a GPU described by cfg under the scheduling
// policy produced by factory, and returns the collected result.
func Run(cfg *config.Config, launch *engine.Launch, factory engine.Factory, opts Options) (*stats.KernelResult, error) {
	return RunContext(context.Background(), cfg, launch, factory, opts)
}

// RunContext is Run with cooperative cancellation: the cycle loop polls
// ctx every ctxCheckInterval cycles and aborts with ctx's error when it
// is cancelled, so a context cancel (daemon shutdown, per-job timeout)
// stops an in-flight simulation within a bounded delay instead of
// letting it run to completion. Cancellation never alters results: a
// run that completes did so on the exact same cycle-by-cycle path as
// under Run.
func RunContext(ctx context.Context, cfg *config.Config, launch *engine.Launch, factory engine.Factory, opts Options) (*stats.KernelResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := launch.Validate(cfg); err != nil {
		return nil, err
	}
	maxCycles := opts.MaxCycles
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}
	stallWindow := opts.StallWindow
	if stallWindow <= 0 {
		stallWindow = defaultStallWindow
	}

	wheel := timing.NewWheel()
	mem := memsys.New(cfg, wheel)

	pending := launch.GridTBs
	assignedNext := 0

	res := &stats.KernelResult{
		Kernel:  launch.Program.Name,
		TBCount: launch.GridTBs,
	}

	// assignDirty tracks whether a TB placement could possibly succeed:
	// residency only frees on TB retirement, so after a probe that finds
	// every SM full, the per-cycle assignment step is skipped until the
	// next retire instead of re-probing all SMs each cycle.
	assignDirty := true
	handleRetire := func(tb *engine.ThreadBlock, _ int64) {
		assignDirty = true
		if opts.Timeline {
			res.Timeline = append(res.Timeline, stats.TBSpan{
				TB: tb.Global, SM: tb.SMID, Slot: tb.LaunchSeq,
				Start: tb.StartCycle, End: tb.EndCycle,
			})
		}
	}

	sms := make([]*engine.SM, cfg.NumSMs)
	for i := range sms {
		sm := engine.NewSM(i, cfg, wheel, mem, launch, factory)
		sm.PendingTBsFn = func() int { return pending }
		sm.OnTBRetireFn = handleRetire
		sms[i] = sm
	}
	res.Scheduler = sms[0].Sched.Name()

	// Flight recorder: an explicit Options.Flight recorder wins;
	// otherwise the process-wide sink (if armed at run start — loaded
	// once, like the heartbeat) builds a per-run recorder and receives
	// the capture at completion. With neither, every instrumented site
	// pays a single nil check and the run is observably identical.
	rec := opts.Flight
	sink := flState.Load()
	if rec == nil && sink != nil {
		rec = flight.New(sink.opts)
	}
	if rec != nil {
		rec.Start(cfg.NumSMs)
		for i, sm := range sms {
			sm.SetFlight(rec.SM(i))
		}
		mem.SetFlight(rec.Mem())
	}

	// Thread Block Scheduler: breadth-first round-robin assignment; after
	// the initial fill, TBs go out one at a time as residency frees up
	// (paper Sec. I). rr persists across cycles so freed slots anywhere
	// get the next TB in grid order.
	rr := 0
	assign := func(cycle int64) {
		if !assignDirty {
			return
		}
		for pending > 0 {
			placed := false
			for probe := 0; probe < len(sms); probe++ {
				sm := sms[(rr+probe)%len(sms)]
				if sm.CanAccept() {
					sm.AssignTB(assignedNext, cycle)
					assignedNext++
					pending--
					rr = (rr + probe + 1) % len(sms)
					placed = true
					break
				}
			}
			if !placed {
				assignDirty = false
				return
			}
		}
	}

	// Sampling state: snapshot of the aggregate counters at the last
	// sample point.
	var lastSample struct {
		instrs int64
		stalls stats.StallBreakdown
	}
	sample := func(cycle int64) {
		var cur stats.StallBreakdown
		var instrs int64
		resident := 0
		for _, sm := range sms {
			cur.Add(sm.StallTotal())
			instrs += sm.WarpInstrs
			resident += sm.ResidentTBCount()
		}
		res.Samples = append(res.Samples, stats.Sample{
			Cycle:      cycle,
			WarpInstrs: instrs - lastSample.instrs,
			Stalls: stats.StallBreakdown{
				Issued:     cur.Issued - lastSample.stalls.Issued,
				Idle:       cur.Idle - lastSample.stalls.Idle,
				Scoreboard: cur.Scoreboard - lastSample.stalls.Scoreboard,
				Pipeline:   cur.Pipeline - lastSample.stalls.Pipeline,
			},
			ResidentTBs: resident,
			PendingTBs:  pending,
		})
		lastSample.instrs = instrs
		lastSample.stalls = cur
	}

	// Telemetry heartbeat (internal/obs consumers): loaded once per run,
	// so registration mid-run is not observed. With no listener the loop
	// below pays a single always-false branch per iteration; the
	// listener itself only reads, so results are bit-identical either
	// way (asserted by TestHeartbeatDoesNotAlterResults).
	hb := hbState.Load()
	hbOn := hb != nil
	var hbIters int64
	emitHeartbeat := func(cycle int64, final bool) {
		resident := 0
		for _, sm := range sms {
			resident += sm.ResidentTBCount()
		}
		hb.fn(Heartbeat{
			Kernel: launch.Program.Name, Scheduler: res.Scheduler,
			Cycle: cycle, ResidentTBs: resident, PendingTBs: pending,
			Iters: hbIters, Final: final,
			SMWorkers: 1, // deprecated compat group, see Heartbeat
		})
		hbIters = 0
	}

	lastIssued := int64(-1)
	lastIssuedCycle := int64(0)
	checkCtx := ctx.Done() != nil
	var cycle int64
	for cycle = 1; ; cycle++ {
		if checkCtx && cycle%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("gpu: %s/%s aborted at cycle %d: %w",
					launch.Program.Name, res.Scheduler, cycle, err)
			}
		}
		wheel.Advance(cycle)
		mem.Tick(cycle)
		assign(cycle)
		done := true
		// The watchdog's issued sum is folded into the tick pass: an SM's
		// WarpInstrs is final for the cycle when its own Tick returns.
		var issued int64
		for _, sm := range sms {
			sm.Tick(cycle)
			if !sm.Done() {
				done = false
			}
			issued += sm.WarpInstrs
		}
		if opts.SampleEvery > 0 && cycle%opts.SampleEvery == 0 {
			sample(cycle)
		}
		if hbOn {
			hbIters++
			if cycle%hb.every == 0 {
				emitHeartbeat(cycle, false)
			}
		}
		if done && pending == 0 {
			break
		}
		if cycle >= maxCycles {
			return nil, fmt.Errorf("gpu: %s/%s exceeded %d cycles (runaway)",
				launch.Program.Name, res.Scheduler, maxCycles)
		}
		// Deadlock watchdog: total issued instructions must keep moving.
		if issued != lastIssued {
			lastIssued = issued
			lastIssuedCycle = cycle
		} else if cycle-lastIssuedCycle > stallWindow {
			return nil, fmt.Errorf("gpu: %s/%s deadlocked: no issue since cycle %d (pending TBs %d)",
				launch.Program.Name, res.Scheduler, lastIssuedCycle, pending)
		}
	}

	res.Cycles = cycle
	if hbOn {
		emitHeartbeat(cycle, true)
	}
	for _, sm := range sms {
		res.Stalls.Add(sm.StallTotal())
		res.WarpInstrs += sm.WarpInstrs
		res.ThreadInstrs += sm.ThreadInstrs
		res.WarpDisparitySum += sm.WarpDisparitySum
		res.BarrierWaitSum += sm.BarrierWaitSum
		res.BarrierEpisodes += sm.BarrierEpisodes
	}
	res.Mem = mem.Stats()
	if tr, ok := sms[0].Sched.(OrderTracer); ok {
		res.OrderTrace = tr.OrderSamples()
	}
	stats.SortSpansByStart(res.Timeline)
	if rec != nil {
		rec.FinishRun(res.Kernel, res.Scheduler, res.Cycles, res.Stalls)
		if opts.Flight == nil && sink != nil {
			sink.fn(rec.Capture())
		}
	}
	return res, nil
}
