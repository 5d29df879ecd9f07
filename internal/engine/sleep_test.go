package engine

// Wake-source tests for event-driven structural stalls (DESIGN.md §8.3).
// Each scenario parks one SM on a single Pipeline block reason and runs
// it in lockstep with an un-slept twin (DisableCycleSkip): every cycle
// the two must agree on per-slot stalls, issue counts, LD/ST-unit state
// and memory statistics, and the sleeper must stay asleep until — and
// tick on — exactly the cycle its twin first changes state.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/timing"
)

// cachedAll is passAll recording lastTick, the last cycle the engine
// consulted its OrderGen, i.e. the last cycle the SM really ticked
// instead of sleeping.
type cachedAll struct {
	passAll
	lastTick int64
}

func (p *cachedAll) OrderGen(_ int, cycle int64) uint64 { p.lastTick = cycle; return 0 }

// sleepRig is a one-SM rig under cachedAll.
type sleepRig struct {
	rig
	pol *cachedAll
}

func newSleepRig(t *testing.T, prog *isa.Program, blockThreads int, skip bool) *sleepRig {
	t.Helper()
	cfg := config.GTX480()
	cfg.DisableCycleSkip = !skip
	// One refill holds a whole scenario program, so i-buffer refills
	// (a wake source of their own) stay out of the measured windows.
	cfg.IBufferEntries = 16
	wheel := timing.NewWheel()
	mem := memsys.New(cfg, wheel)
	launch := &Launch{Program: prog, GridTBs: 1, BlockThreads: blockThreads, Seed: 3}
	if err := launch.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	r := &sleepRig{rig: rig{cfg: cfg, wheel: wheel, mem: mem}}
	r.sm = NewSM(0, cfg, wheel, mem, launch, func(sm *SM) Scheduler {
		r.pol = &cachedAll{passAll: passAll{sm: sm}}
		return r.pol
	})
	r.sm.AssignTB(0, 0)
	return r
}

// unitState is the SM's state outside the warps plus the memory system's
// counters. An SM tick that does anything moves progress: it issues, or
// it hands the memory system one more line of the op in the LD/ST unit.
type unitState struct {
	progress
	memInflight int
	sfuInflight int
	stores      int
	mem         stats.MemStats
}

type progress struct {
	instrs int64
	lines  int // untransmitted lines of the op in the LD/ST unit, -1 when empty
}

func (r *sleepRig) unitState() unitState {
	u := unitState{
		progress:    progress{instrs: r.sm.WarpInstrs, lines: -1},
		memInflight: r.sm.memInflight, sfuInflight: r.sm.sfuInflight,
		stores: r.mem.OutstandingStores(0), mem: r.mem.Stats(),
	}
	if r.sm.memOp != nil {
		u.lines = len(r.sm.memOp.lines)
	}
	return u
}

// pipelineSlots counts the scheduler slots frozen as Pipeline.
func pipelineSlots(sm *SM) int {
	n := 0
	for _, c := range sm.slotClass {
		if c == outPipeline {
			n++
		}
	}
	return n
}

// runWakeSource drives a sleeping rig and its un-slept twin to completion
// in lockstep. parked reports whether the sleeper is asleep on the block
// reason under test; from the first such cycle until the twin next makes
// progress the sleeper must not tick, and on that cycle it must. It
// returns how many cycles the sleeper skipped inside such windows.
func runWakeSource(t *testing.T, prog *isa.Program, blockThreads int, parked func(sm *SM) bool) (skipped int64) {
	t.Helper()
	fast := newSleepRig(t, prog, blockThreads, true)
	ref := newSleepRig(t, prog, blockThreads, false)
	inWindow := false
	prev := ref.unitState()
	for !ref.sm.Done() {
		if ref.cycle > 200000 {
			t.Fatal("scenario did not finish")
		}
		fast.step()
		ref.step()
		c := ref.cycle
		cur := ref.unitState()
		if got := fast.unitState(); got != cur {
			t.Fatalf("cycle %d: sleeper state %+v, un-slept %+v", c, got, cur)
		}
		fast.sm.StallTotal() // flush the sleeper's lazily-accounted stalls
		for slot := range ref.sm.Stalls {
			if fast.sm.Stalls[slot] != ref.sm.Stalls[slot] {
				t.Fatalf("cycle %d slot %d: sleeper stalls %+v, un-slept %+v",
					c, slot, fast.sm.Stalls[slot], ref.sm.Stalls[slot])
			}
		}
		ticked := fast.pol.lastTick == c
		if inWindow {
			switch changed := cur.progress != prev.progress; {
			case changed && !ticked:
				t.Fatalf("cycle %d: un-slept engine made progress, sleeper overslept", c)
			case !changed && ticked:
				t.Fatalf("cycle %d: sleeper ticked though the un-slept engine made no progress", c)
			case changed:
				inWindow = false
			default:
				skipped++
			}
		}
		if !inWindow && parked(fast.sm) {
			inWindow = true
		}
		prev = cur
	}
	if fast.sm.asleep && fast.sm.wakeAt != neverWake {
		t.Fatal("drained SM is not parked at neverWake")
	}
	return skipped
}

func TestSleepsThroughRefusedLoad(t *testing.T) {
	// Four warps of fully-scattered loads: the first fills all 32 L1
	// MSHRs, the second's head transaction is refused, the others wait
	// for the LD/ST unit. Only an MSHR fill can change that.
	prog := build(t, func(b *isa.Builder) {
		b.LdGlobal(1, isa.MemSpec{Pattern: isa.PatRandom, Region: 16 << 20})
		b.IAdd(2, 1, 1)
		b.Exit()
	})
	skipped := runWakeSource(t, prog, 128, func(sm *SM) bool {
		return sm.asleep && sm.memOp != nil && sm.memOp.kind == isa.OpLdGlobal && pipelineSlots(sm) > 0
	})
	if skipped < 100 {
		t.Fatalf("only %d cycles slept on a refused load; MSHR back-pressure is still polled", skipped)
	}
}

func TestSleepsThroughRefusedStore(t *testing.T) {
	// A scattered store outruns the 16-entry store buffer; the rest of
	// the TB queues behind it for the LD/ST unit.
	prog := build(t, func(b *isa.Builder) {
		b.StGlobal(1, isa.MemSpec{Pattern: isa.PatRandom, Region: 16 << 20})
		b.Exit()
	})
	skipped := runWakeSource(t, prog, 128, func(sm *SM) bool {
		return sm.asleep && sm.memOp != nil && sm.memOp.kind == isa.OpStGlobal && pipelineSlots(sm) > 0
	})
	if skipped < 100 {
		t.Fatalf("only %d cycles slept on a refused store; the store buffer is still polled", skipped)
	}
}

func TestSleepsThroughSFUSaturation(t *testing.T) {
	// Independent SFU ops from four warps fill the 8-deep SFU queue in 8
	// cycles; the first result is 20 cycles out.
	prog := build(t, func(b *isa.Builder) {
		for dst := isa.Reg(1); dst <= 8; dst++ {
			b.SFU(dst, 0)
		}
		b.Exit()
	})
	skipped := runWakeSource(t, prog, 128, func(sm *SM) bool {
		return sm.asleep && sm.sfuInflight == sm.Cfg.SFUQueueDepth && pipelineSlots(sm) == 2
	})
	if skipped < 8 {
		t.Fatalf("only %d cycles slept on SFU saturation", skipped)
	}
}

func TestSleepsThroughSharedBankConflict(t *testing.T) {
	// A 32-way bank-conflicted shared load keeps the LD/ST unit busy for
	// 32 cycles — a wake cycle known in advance, not an event.
	prog := build(t, func(b *isa.Builder) {
		b.LdShared(1, isa.MemSpec{Pattern: isa.PatStrided, Stride: 128})
		b.IAdd(2, 1, 1)
		b.Exit()
	})
	skipped := runWakeSource(t, prog, 128, func(sm *SM) bool {
		return sm.asleep && sm.wakeAt <= sm.memBusyUntil && pipelineSlots(sm) > 0
	})
	if skipped < 3*25 {
		t.Fatalf("only %d cycles slept behind the LD/ST busy window (want ~30 per conflicted access)", skipped)
	}
}

func TestFillWithEmptyLDSTUnitDoesNotWakeScoreboardSleeper(t *testing.T) {
	// One warp, one 32-line load, then a dependent add: once the lines
	// are out the SM sleeps on Scoreboard with the LD/ST unit empty.
	// Thirty-one of the thirty-two fills resolve nothing and must leave
	// it asleep; the wake in memOp.doneFn is for a refused head only.
	prog := build(t, func(b *isa.Builder) {
		b.LdGlobal(1, isa.MemSpec{Pattern: isa.PatRandom, Region: 16 << 20})
		b.IAdd(2, 1, 1)
		b.Exit()
	})
	r := newSleepRig(t, prog, 32, true)
	var op *memOp
	for op == nil {
		r.step()
		op = r.sm.memOp
	}
	for r.sm.memOp != nil {
		r.step()
	}
	quietFills := 0
	for left := op.outstanding; left > 1; {
		if r.cycle > 100000 {
			t.Fatal("load never completed")
		}
		r.step()
		if op.outstanding == left {
			continue
		}
		left = op.outstanding
		if left == 0 {
			break
		}
		quietFills++
		if !r.sm.asleep || r.sm.wakeAt != neverWake || r.pol.lastTick == r.cycle {
			t.Fatalf("cycle %d: a fill with %d lines still outstanding and no op in the LD/ST unit woke the SM", r.cycle, left)
		}
		if r.sm.slotClass[0] != outScoreboard {
			t.Fatalf("slot 0 frozen as %d, want Scoreboard", r.sm.slotClass[0])
		}
	}
	if quietFills < 16 {
		t.Fatalf("observed only %d non-resolving fills; scenario lost its coverage", quietFills)
	}
	r.runToCompletion(t, 100000)
}
