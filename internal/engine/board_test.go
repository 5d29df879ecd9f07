package engine

// Tests for the issue board (DESIGN.md §8.4): the masks, the gate
// expiry, the unit classes and the order hints must pick, cycle by
// cycle, the warp a plain walk over the policy's own Order() picks.
// `make issuetest` runs them under -race.

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/timing"
	"repro/internal/xrand"
)

// Modes of boardPolicy: how an issue changes its order and what the
// hooks tell the engine.
const (
	modeRotate   = iota // restart after the issuing warp: RotateAfter
	modeHead            // issuing warp to the head, GTO's protocol: NewHead
	modeShuffle         // occasional reshuffle: Rebuild
	modeHeadOnce        // head protocol over an order that lists the head once: NewHead, which the engine must refuse
	modeRelease         // rotate, and a warp at a barrier leaves the order until the release: Rebuild from both barrier hooks
	numModes
)

// boardPolicy is a policy whose Order is a pure function of its state
// and which describes every change to it through a hook's hint.
type boardPolicy struct {
	BasePolicy
	mode   int
	rng    *xrand.RNG
	list   [][]*Warp // per slot, priority order; finished warps stay until their TB retires
	cursor []int     // per slot: list index the order starts from
	head   []*Warp   // per slot: leads the order when live and not hidden
	hidden map[*Warp]bool
	issued *Warp // set by OnIssue, and by OnWarpFinish for an Exit
}

func newBoardPolicy(sm *SM, mode int, seed uint64) *boardPolicy {
	n := sm.Cfg.SchedulersPerSM
	return &boardPolicy{
		mode: mode, rng: xrand.NewRNG(seed),
		list: make([][]*Warp, n), cursor: make([]int, n), head: make([]*Warp, n),
		hidden: make(map[*Warp]bool),
	}
}

func (p *boardPolicy) Name() string { return "board-test" }

// Order leads with entries the engine must drop (nil, another slot's
// warp), then the head, then the list from the cursor; a head recurs at
// its list position except in modeHeadOnce.
func (p *boardPolicy) Order(slot int, dst []*Warp, _ int64) []*Warp {
	dst = append(dst, nil)
	if other := p.list[(slot+1)%len(p.list)]; len(p.list) > 1 && len(other) > 0 {
		dst = append(dst, other[0])
	}
	h := p.head[slot]
	if h != nil && !h.Finished() && !p.hidden[h] {
		dst = append(dst, h)
	}
	l := p.list[slot]
	for i := range l {
		if w := l[(p.cursor[slot]+i)%len(l)]; !p.hidden[w] && !(p.mode == modeHeadOnce && w == h) {
			dst = append(dst, w)
		}
	}
	return dst
}

func indexOf(l []*Warp, w *Warp) int {
	for i, x := range l {
		if x == w {
			return i
		}
	}
	return -1
}

func (p *boardPolicy) OnIssue(w *Warp, _ *isa.Instr, _ int, _ int64) Hint {
	p.issued = w
	slot := w.SchedSlot
	l := p.list[slot]
	switch p.mode {
	case modeRotate, modeRelease:
		p.cursor[slot] = (indexOf(l, w) + 1) % len(l)
		return RotateAfter
	case modeHead, modeHeadOnce:
		old := p.head[slot]
		if old == w {
			return Keep
		}
		p.head[slot] = w
		if old == nil || old.Finished() {
			return Rebuild // Order had no head to replace
		}
		return NewHead
	case modeShuffle:
		if p.rng.Intn(4) == 0 {
			for i := len(l) - 1; i > 0; i-- {
				j := p.rng.Intn(i + 1)
				l[i], l[j] = l[j], l[i]
			}
			return Rebuild
		}
	}
	return Keep
}

func (p *boardPolicy) OnTBAssign(tb *ThreadBlock, _ int64) {
	for _, w := range tb.Warps {
		p.list[w.SchedSlot] = append(p.list[w.SchedSlot], w)
	}
}

func (p *boardPolicy) OnTBRetire(tb *ThreadBlock, _ int64) {
	for slot, l := range p.list {
		kept := l[:0]
		for _, w := range l {
			if w.TB != tb {
				kept = append(kept, w)
			}
		}
		p.list[slot], p.cursor[slot] = kept, 0
		if h := p.head[slot]; h != nil && h.TB == tb {
			p.head[slot] = nil
		}
	}
}

func (p *boardPolicy) OnWarpFinish(w *Warp, _ int64) Hint {
	p.issued = w // an Exit issues but is reported here, not to OnIssue
	if p.head[w.SchedSlot] == w {
		return Rebuild // the head leaves Order
	}
	return Keep
}

// In modeRelease a warp waiting at a barrier leaves its slot's order, and
// the release brings the TB's warps back on every slot: only the release's
// Rebuild tells the engine about the siblings on the other slot.
func (p *boardPolicy) OnBarrierArrive(w *Warp, _ int64) Hint {
	if p.mode != modeRelease {
		return Keep
	}
	p.hidden[w] = true
	return Rebuild
}

func (p *boardPolicy) OnBarrierRelease(tb *ThreadBlock, _ int64) Hint {
	if p.mode != modeRelease {
		return Keep
	}
	for _, w := range tb.Warps {
		delete(p.hidden, w)
	}
	return Rebuild
}

// boardProgram draws a short program that reaches every block reason:
// dependent ALU chains (scoreboard gates that expire), SFU and LD/ST
// work (unit classes), bank-conflicted shared accesses (the busy
// window), global loads and stores (pending-load gates, the mem-op
// register), barriers, and — with two i-buffer entries — a refill every
// other instruction.
func boardProgram(rng *xrand.RNG) *isa.Program {
	b := isa.NewBuilder("board")
	b.Loop(isa.LoopSpec{Min: 1 + rng.Intn(3), Max: 3})
	for i, n := 0, 8+rng.Intn(10); i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			b.IAdd(1, 1, 1)
		case 2:
			b.FMul(isa.Reg(7+rng.Intn(3)), 1, 1)
		case 3:
			b.SFU(3, 1)
		case 4:
			b.LdShared(4, isa.MemSpec{Pattern: isa.PatStrided, Stride: 8 << uint(rng.Intn(4))})
		case 5:
			b.LdConst(5)
		case 6:
			b.LdGlobal(6, isa.MemSpec{Pattern: isa.PatCoalesced, IterVaries: true})
		case 7:
			b.FAdd(2, 6, 4)
		case 8:
			b.StGlobal(1, isa.MemSpec{Pattern: isa.PatCoalesced, Space: 1})
		case 9:
			b.Bar()
		}
	}
	b.EndLoop()
	b.Exit()
	return b.MustBuild()
}

// refSlot is the reference: a plain walk over the policy's order that
// predicts, without side effects, what slot must do at cycle — the
// outcome, the issuing warp, and for a slot that does not issue the
// exact cycle its outcome can next change on the SM's own clock.
func refSlot(sm *SM, pol Scheduler, slot int, cycle int64) (slotOutcome, *Warp, int64) {
	if sm.residentTBs == 0 {
		return outIdle, nil, neverWake
	}
	anyValid, anyReady := false, false
	until := neverWake
	seen := make(map[*Warp]bool)
	for _, w := range pol.Order(slot, nil, cycle) {
		if w == nil || w.SchedSlot != slot || w.finished || seen[w] {
			continue
		}
		seen[w] = true
		in := w.NextInstr()
		switch {
		case in == nil:
		case !w.ScoreboardReady(in, cycle):
			anyValid = true
			if at := w.readyAt(in); at < until {
				until = at
			}
		default:
			anyValid, anyReady = true, true
			if refCanIssue(sm, in, cycle) {
				return outIssued, w, 0
			}
		}
	}
	switch {
	case anyReady:
		if cycle < sm.memBusyUntil && sm.memBusyUntil < until {
			until = sm.memBusyUntil
		}
		return outPipeline, nil, until
	case anyValid:
		return outScoreboard, nil, until
	}
	return outIdle, nil, until
}

// refCanIssue restates tryIssue's refusals.
func refCanIssue(sm *SM, in *isa.Instr, cycle int64) bool {
	switch in.Op.Unit() {
	case isa.UnitSFU:
		if !sm.sfuToken || sm.sfuInflight >= sm.Cfg.SFUQueueDepth {
			return false
		}
	case isa.UnitMem:
		if !sm.memToken || cycle < sm.memBusyUntil || sm.memOp != nil {
			return false
		}
	}
	return !in.Op.IsGlobalMem() || sm.memInflight < sm.Cfg.MemQueueDepth
}

// wideSlotConfig puts more than 64 warps on one scheduler slot, so every
// board mask spans two words.
func wideSlotConfig() *config.Config {
	cfg := config.GTX480()
	cfg.SchedulersPerSM = 1
	cfg.MaxThreadsPerSM = 4096
	cfg.MaxTBsPerSM = 32
	cfg.RegistersPerSM = 1 << 17
	return cfg
}

// TestIssueBoardMatchesReferenceWalk drives one SM through seeded random
// programs under every boardPolicy mode — TBs streaming through, so
// issue, i-buffer refill, load return, barrier, exit, assignment and
// retirement all interleave — and compares every slot-cycle with
// refSlot. The wake horizon must never be later than the reference's
// (minGate is a lower bound: early costs a re-scan, late loses cycles).
//
// Mutation-checked: dropping the unit classes' anyReady, skipping the
// gate expiry, letting block() leave minGate alone, examining a
// duplicate twice, honouring NewHead without its head-recurs check,
// and ignoring OnBarrierRelease's hint each fail it.
func TestIssueBoardMatchesReferenceWalk(t *testing.T) {
	var outcomes [4]int64
	for seed := uint64(1); seed <= 36; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := xrand.NewRNG(seed)
			cfg := config.GTX480()
			if seed%3 == 0 {
				cfg = wideSlotConfig()
			}
			wheel := timing.NewWheel()
			mem := memsys.New(cfg, wheel)
			launch := &Launch{
				Program: boardProgram(rng), GridTBs: 1 << 20,
				BlockThreads: 32 * (1 + rng.Intn(8)), RegsPerThread: 16, Seed: rng.Next(),
			}
			if err := launch.Validate(cfg); err != nil {
				t.Fatal(err)
			}
			var pol *boardPolicy
			sm := NewSM(0, cfg, wheel, mem, launch, func(sm *SM) Scheduler {
				pol = newBoardPolicy(sm, int(seed%numModes), rng.Next())
				return pol
			})
			if !sm.cycleSkipOn {
				t.Fatal("the board's cycle skipping is off")
			}
			nextTB := 0
			for cycle := int64(1); cycle <= 6000; cycle++ {
				wheel.Advance(cycle)
				mem.Tick(cycle)
				// Assign in bursts, so residency (and with it the set of
				// live board bits) keeps changing.
				for sm.CanAccept() && rng.Intn(3) == 0 {
					sm.AssignTB(nextTB, cycle)
					nextTB++
				}
				sm.sfuToken, sm.memToken = true, true
				sm.drainMemOp(cycle)
				for slot := 0; slot < cfg.SchedulersPerSM; slot++ {
					want, wantWarp, wantUntil := refSlot(sm, pol, slot, cycle)
					pol.issued = nil
					got, until := sm.tickSlot(slot, cycle)
					if got != want || pol.issued != wantWarp {
						t.Fatalf("cycle %d slot %d: outcome %d issuing %v, reference %d issuing %v",
							cycle, slot, got, slotOf(pol.issued), want, slotOf(wantWarp))
					}
					if got != outIssued && until > wantUntil {
						t.Fatalf("cycle %d slot %d: wake horizon %d is later than the reference's %d",
							cycle, slot, until, wantUntil)
					}
					outcomes[got]++
				}
			}
			if nextTB < 4 {
				t.Fatalf("only %d thread blocks were assigned", nextTB)
			}
		})
	}
	for out, n := range outcomes {
		if n < 1000 {
			t.Errorf("outcome %d was seen on %d slot-cycles: the programs do not reach it", out, n)
		}
	}
}

func slotOf(w *Warp) int {
	if w == nil {
		return -1
	}
	return w.Slot
}
