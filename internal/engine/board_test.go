package engine

// Tests for the issue board (DESIGN.md §8.4): the masks, the gate
// expiry, the unit classes and the two order hints must pick, cycle by
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

// Modes of boardPolicy: how an issue changes its order and how it tells
// the engine.
const (
	modeRotate     = iota // restart after the issuing warp, RotateOrderAfter(w): always honoured
	modeHead              // issuing warp to the head, ReplaceOrderHead(old, w): GTO's protocol
	modeShuffle           // occasional reshuffle with a generation bump, no hints
	modeRotateVoid        // restart after an arbitrary warp x, RotateOrderAfter(x): void unless x == w
	modeHeadVoid          // head protocol naming an old that is not at position 0; barrier releases un-hide warps behind a hint only
	modeHeadOnce          // head protocol over an order that lists the head once: the hint cannot describe it
	numModes
)

// boardPolicy is a cacheable policy whose Order is a pure function of
// its state and whose generation moves only when no hint describes the
// change. In the two "void" modes most hints fail their precondition,
// so the engine must fall back on Order.
type boardPolicy struct {
	BasePolicy
	sm     *SM
	mode   int
	rng    *xrand.RNG
	list   [][]*Warp // per slot, priority order; finished warps stay until their TB retires
	cursor []int     // per slot: list index the order starts from
	head   []*Warp   // per slot: leads the order when live and not hidden
	hidden map[*Warp]bool
	gens   []uint64
	issued *Warp // set by OnIssue
}

func newBoardPolicy(sm *SM, mode int, seed uint64) *boardPolicy {
	n := sm.Cfg.SchedulersPerSM
	return &boardPolicy{
		sm: sm, mode: mode, rng: xrand.NewRNG(seed),
		list: make([][]*Warp, n), cursor: make([]int, n), head: make([]*Warp, n),
		hidden: make(map[*Warp]bool), gens: make([]uint64, n),
	}
}

func (p *boardPolicy) Name() string                      { return "board-test" }
func (p *boardPolicy) OrderGen(slot int, _ int64) uint64 { return p.gens[slot] }

func (p *boardPolicy) bumpAll() {
	for i := range p.gens {
		p.gens[i]++
	}
}

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

func (p *boardPolicy) OnIssue(w *Warp, _ *isa.Instr, _ int, _ int64) {
	p.issued = w
	slot := w.SchedSlot
	l := p.list[slot]
	switch p.mode {
	case modeRotate:
		p.cursor[slot] = (indexOf(l, w) + 1) % len(l)
		p.sm.RotateOrderAfter(w)
	case modeRotateVoid:
		x := l[p.rng.Intn(len(l))] // may be finished, or w itself
		p.cursor[slot] = (indexOf(l, x) + 1) % len(l)
		p.sm.RotateOrderAfter(x)
	case modeHead, modeHeadVoid, modeHeadOnce:
		old := p.head[slot]
		if old == w {
			return
		}
		p.head[slot] = w
		headless := old == nil || old.Finished() || p.hidden[old] // Order had no head to replace
		switch {
		case old == nil, headless && p.mode != modeHeadVoid:
			p.gens[slot]++
		case p.mode == modeHeadVoid && !headless:
			if x := l[p.rng.Intn(len(l))]; x != old {
				old = x // not at position 0: the hint is void
			}
			fallthrough
		default: // modeHeadVoid with a headless order: position 0 is not old either
			p.sm.ReplaceOrderHead(old, w)
		}
	case modeShuffle:
		if p.rng.Intn(4) == 0 {
			for i := len(l) - 1; i > 0; i-- {
				j := p.rng.Intn(i + 1)
				l[i], l[j] = l[j], l[i]
			}
			p.gens[slot]++
		}
	}
}

func (p *boardPolicy) OnTBAssign(tb *ThreadBlock, _ int64) {
	p.bumpAll()
	for _, w := range tb.Warps {
		p.list[w.SchedSlot] = append(p.list[w.SchedSlot], w)
	}
}

func (p *boardPolicy) OnTBRetire(tb *ThreadBlock, _ int64) {
	p.bumpAll()
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

func (p *boardPolicy) OnWarpFinish(w *Warp, _ int64) {
	if p.head[w.SchedSlot] == w {
		p.gens[w.SchedSlot]++ // the head leaves Order
	}
}

// In modeHeadVoid a warp waiting at a barrier leaves its slot's order
// (with a bump), and a release brings the TB's warps back *without* one:
// the policy makes a released warp the slot's head and says so through
// ReplaceOrderHead — which is void, the released warp not being in the
// cached order, so the engine has to rebuild and finds the siblings
// too. (The last arrival's bump covers its own slot; the other slot has
// the void hint alone.)
func (p *boardPolicy) OnBarrierArrive(w *Warp, _ int64) {
	if p.mode == modeHeadVoid {
		p.hidden[w] = true
		p.gens[w.SchedSlot]++
	}
}

func (p *boardPolicy) OnBarrierRelease(tb *ThreadBlock, _ int64) {
	if p.mode != modeHeadVoid {
		return
	}
	for _, w := range tb.Warps {
		delete(p.hidden, w)
	}
	for slot := range p.list {
		for _, w := range tb.Warps {
			if w.SchedSlot == slot && !w.Finished() {
				old := p.head[slot]
				if old == nil || old.Finished() {
					old = w
				}
				p.head[slot] = w
				p.sm.ReplaceOrderHead(old, w)
				break
			}
		}
	}
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
// duplicate twice, honouring RotateOrderAfter without the position
// check, and ReplaceOrderHead without its head-recurs or its w-in-order
// check each fail it. (A wrong old over a recurring head is void, but
// honouring it would give the same order, so that check cannot fail.)
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
			if !sm.cycleSkipOn || !sm.orderCacheOn {
				t.Fatal("the board's fast paths are off")
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
