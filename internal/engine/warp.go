package engine

import (
	"math"
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
)

// regPendingLoad marks a register whose producing load has not returned;
// cleared by the memory-completion callback.
const regPendingLoad = math.MaxInt64

// simtEntry is one SIMT reconvergence-stack entry: the threads in Mask
// execute from PC and rejoin the entry below when PC reaches Reconv.
type simtEntry struct {
	PC     int32
	Reconv int32 // -1 on the base entry (never pops)
	Mask   uint32
}

// Warp is one warp's execution state. All mutation happens through the
// owning SM's issue path.
//
// Field order is deliberate: the leading group is what the issue scan
// reads of a warp it examines (a candidate on the SM's issue board — a
// blocked warp is not touched at all) and what the issue path charges;
// the SIMT stack, scoreboard and visit counters that only matter when
// the warp progresses come after.
type Warp struct {
	// nextIn caches NextInstr's result — the decoded instruction the warp
	// would issue, nil when the warp is not Valid. Refreshed by
	// refreshNextInstr at every site that changes the inputs (PC moves,
	// i-buffer drain/refill, barrier entry/release, exit), so the
	// per-cycle issue scan reads a field instead of re-deriving it.
	nextIn *isa.Instr

	// nextPC, nextIter and nextMask snapshot the issue coordinates
	// (program counter, dynamic visit count, active mask) coherently
	// with nextIn. They are only meaningful while nextIn != nil, and
	// every mutation of their sources (SIMT stack, visits) is followed
	// by refreshNextInstr. Keeping them on the warp struct lets the
	// issue path read three fields from an already-hot cache line
	// instead of chasing into the stack and visits allocations on
	// every attempt.
	nextPC   int32
	nextIter int32
	nextMask uint32

	// TB is the owning thread block; in the leading group because the
	// issue path charges progress to it on every instruction.
	TB *ThreadBlock

	// board is the owning scheduler slot's issue board; local is the
	// warp's index on it (Slot / SchedulersPerSM), i.e. bit of mask word
	// word.
	board *issueBoard
	local int
	word  int
	bit   uint64

	finished  bool
	atBar     bool
	fetchBusy bool

	// SchedSlot is the hardware scheduler that owns this warp
	// (Slot % SchedulersPerSM, interleaving a TB's warps across
	// schedulers as on Fermi).
	SchedSlot int

	// ibuf is the number of decoded instructions available; when it
	// drains, a refill arrives ifetchLatency cycles later.
	ibuf int

	// SM is the owning core.
	SM *SM
	// IDInTB is the warp index within its TB; Slot is the SM warp slot.
	IDInTB int
	Slot   int

	// Progress is the paper's WarpProgress: thread-instructions executed
	// (issues weighted by active lanes). Maintained by the SM on every
	// issue so any scheduler may read it.
	Progress int64
	// Issued counts warp-instructions issued.
	Issued int64
	// SpawnCycle is when the warp was created (GTO's age).
	SpawnCycle int64
	// FinishCycle is when the warp exited (0 while running). The spread
	// of finish cycles across a TB's warps is the paper's "warp-level
	// divergence".
	FinishCycle int64

	stack []simtEntry

	// regReady[r] is the first cycle register r can be read/overwritten.
	regReady [int(isa.MaxReg) + 1]int64
	// outstandingLoads counts in-flight global loads/atomics.
	outstandingLoads int

	// visits[pc] counts dynamic executions of each static instruction —
	// the iteration coordinate for address/branch hashing.
	visits []int32
	// loopRem[loop*32+lane] is the remaining back-branch takes for each
	// lane; re-armed on loop exit so nested re-entry works.
	loopRem []int32

	// fetchDone is the i-buffer refill callback, bound once at warp
	// creation so fetches do not allocate a closure per refill.
	fetchDone func(int64)
}

// newWarp builds the warp in its initial state: converged at PC 0 with
// its population mask, loop counters armed, i-buffer empty (first fetch
// is scheduled by the SM).
func newWarp(sm *SM, tb *ThreadBlock, idInTB, slot int, cycle int64) *Warp {
	l := tb.Launch
	w := &Warp{
		SM:      sm,
		visits:  make([]int32, l.Program.Len()),
		loopRem: make([]int32, len(l.Program.Loops)*config.WarpSize),
	}
	w.fetchDone = func(int64) {
		if w.finished {
			// A warp that issues Exit just as its i-buffer drains has one
			// last (useless) refill in flight. Clearing fetchBusy is
			// invisible to the model — nothing reads it for a finished
			// warp — but it marks the warp free of pending callbacks, so
			// its thread block becomes recyclable.
			w.fetchBusy = false
			return
		}
		w.ibuf = sm.Cfg.IBufferEntries
		w.fetchBusy = false
		w.unblock()
		w.refreshNextInstr()
		sm.wakeEvent()
	}
	w.reset(tb, idInTB, slot, cycle)
	return w
}

// reset (re)initializes the warp for a thread block, reusing its
// allocated stack/visits/loopRem backing and its bound fetchDone closure
// (both close over the warp and SM only, which never change across pool
// cycles). The result is indistinguishable from a newWarp-built warp:
// converged at PC 0, registers clear, loop counters armed, i-buffer
// empty. Callers guarantee no stale callbacks (fetch, load completion)
// still reference the warp.
func (w *Warp) reset(tb *ThreadBlock, idInTB, slot int, cycle int64) {
	l := tb.Launch
	threads := l.BlockThreads - idInTB*config.WarpSize
	if threads > config.WarpSize {
		threads = config.WarpSize
	}
	mask := uint32(math.MaxUint32)
	if threads < config.WarpSize {
		mask = uint32(1)<<uint(threads) - 1
	}
	w.TB = tb
	w.IDInTB = idInTB
	w.Slot = slot
	w.SchedSlot = slot % len(w.SM.boards)
	w.board, w.local = &w.SM.boards[w.SchedSlot], slot/len(w.SM.boards)
	w.word, w.bit = w.local>>6, 1<<uint(w.local&63)
	w.board.live[w.word] |= w.bit
	w.unblock()
	w.Progress, w.Issued = 0, 0
	w.SpawnCycle, w.FinishCycle = cycle, 0
	w.stack = append(w.stack[:0], simtEntry{PC: 0, Reconv: -1, Mask: mask})
	w.atBar, w.finished = false, false
	w.regReady = [int(isa.MaxReg) + 1]int64{}
	w.outstandingLoads = 0
	for i := range w.visits {
		w.visits[i] = 0
	}
	for loopID := range l.Program.Loops {
		w.armLoop(loopID)
	}
	w.ibuf, w.fetchBusy = 0, false
	w.refreshNextInstr() // ibuf is 0: clears nextIn and the ready bit
}

// armLoop initializes the remaining-take counters of loopID for every
// populated lane: a trip count of N means the body runs N times, so the
// back-branch is taken N-1 times.
func (w *Warp) armLoop(loopID int) {
	prog := w.TB.Launch.Program
	for lane := 0; lane < config.WarpSize; lane++ {
		t := prog.Trips(loopID, w.TB.Launch.Seed, w.TB.Global, w.IDInTB, lane)
		w.loopRem[loopID*config.WarpSize+lane] = int32(t - 1)
	}
}

// Finished reports whether every thread of the warp has exited.
func (w *Warp) Finished() bool { return w.finished }

// AtBarrier reports whether the warp is blocked at a barrier.
func (w *Warp) AtBarrier() bool { return w.atBar }

// Valid reports whether the warp has an instruction available for issue
// consideration: alive, not at a barrier, with a decoded instruction in
// its buffer. A warp that is not Valid contributes to Idle stalls.
func (w *Warp) Valid() bool {
	return !w.finished && !w.atBar && w.ibuf > 0
}

// PC returns the warp's current program counter (top of the SIMT stack),
// or -1 when finished.
func (w *Warp) PC() int {
	if w.finished {
		return -1
	}
	return int(w.stack[len(w.stack)-1].PC)
}

// ActiveMask returns the active-lane mask, 0 when finished.
func (w *Warp) ActiveMask() uint32 {
	if w.finished {
		return 0
	}
	return w.stack[len(w.stack)-1].Mask
}

// ActiveLanes returns the number of active lanes.
func (w *Warp) ActiveLanes() int { return bits.OnesCount32(w.ActiveMask()) }

// unblock makes the next issue scan re-examine the warp; every event
// that can end a block calls it (i-buffer refill, load resolution,
// barrier release, reassignment).
func (w *Warp) unblock() { w.board.blocked[w.word] &^= w.bit }

// NextInstr returns the instruction the warp would issue, or nil when not
// Valid.
func (w *Warp) NextInstr() *isa.Instr { return w.nextIn }

// refreshNextInstr re-derives the cached NextInstr result. Must be called
// after any change to the warp's finished/barrier/i-buffer state or its
// program counter.
func (w *Warp) refreshNextInstr() {
	w.board.ready[w.word] &^= w.bit
	if w.finished || w.atBar || w.ibuf == 0 {
		w.nextIn = nil
		return
	}
	top := &w.stack[len(w.stack)-1]
	w.nextIn = w.TB.Launch.Program.At(int(top.PC))
	w.nextPC = top.PC
	w.nextMask = top.Mask
	w.nextIter = w.visits[top.PC]
}

// ScoreboardReady reports whether in's source and destination registers
// are all available at cycle (RAW and WAW hazards clear).
func (w *Warp) ScoreboardReady(in *isa.Instr, cycle int64) bool {
	if in.Dst != isa.NoReg && w.regReady[in.Dst] > cycle {
		return false
	}
	for _, s := range in.Srcs {
		if s != isa.NoReg && w.regReady[s] > cycle {
			return false
		}
	}
	return true
}

// readyAt returns the first cycle at which in's source and destination
// registers are all available — neverWake when one awaits an in-flight
// load (regPendingLoad), whose completion callback wakes the SM.
func (w *Warp) readyAt(in *isa.Instr) int64 {
	at := int64(0)
	if in.Dst != isa.NoReg {
		at = w.regReady[in.Dst]
	}
	for _, s := range in.Srcs {
		if s != isa.NoReg && w.regReady[s] > at {
			at = w.regReady[s]
		}
	}
	return at // regPendingLoad == neverWake
}

// setRegLatency marks dst unavailable until cycle+lat.
func (w *Warp) setRegLatency(dst isa.Reg, cycle, lat int64) {
	if dst != isa.NoReg {
		w.regReady[dst] = cycle + lat
	}
}

// advancePC moves the top-of-stack past a non-branch instruction and pops
// reconverged entries.
func (w *Warp) advancePC() {
	w.stack[len(w.stack)-1].PC++
	w.popReconverged()
}

func (w *Warp) popReconverged() {
	for len(w.stack) > 1 {
		top := &w.stack[len(w.stack)-1]
		if top.Reconv < 0 || top.PC != top.Reconv {
			return
		}
		w.stack = w.stack[:len(w.stack)-1]
	}
}

// execBranch applies the branch at pc to the SIMT stack. iter is the
// dynamic execution index used for hashed predicates.
func (w *Warp) execBranch(in *isa.Instr, pc int, iter int64) {
	br := in.Branch
	top := &w.stack[len(w.stack)-1]
	mask := top.Mask

	var jumpMask uint32
	if br.Kind == isa.BrLoop {
		// Lanes with remaining takes jump back; exhausted lanes fall
		// through and re-arm for a possible re-entry.
		base := br.LoopID * config.WarpSize
		prog := w.TB.Launch.Program
		for lanes := mask; lanes != 0; {
			l := bits.TrailingZeros32(lanes)
			lanes &^= 1 << uint(l)
			if w.loopRem[base+l] > 0 {
				w.loopRem[base+l]--
				jumpMask |= 1 << uint(l)
			} else {
				t := prog.Trips(br.LoopID, w.TB.Launch.Seed, w.TB.Global, w.IDInTB, l)
				w.loopRem[base+l] = int32(t - 1)
			}
		}
	} else {
		// Forward branches: predicate-FALSE lanes jump to Target.
		pred := isa.PredMask(br, w.TB.Launch.Seed, w.TB.Global, w.IDInTB, pc, iter, mask)
		jumpMask = mask &^ pred
	}
	fallMask := mask &^ jumpMask

	switch {
	case jumpMask == 0:
		top.PC = int32(pc + 1)
	case fallMask == 0:
		top.PC = int32(br.Target)
	default:
		// Divergence: the current entry becomes the reconvergence entry;
		// the fall-through side is pushed below the jump side so the jump
		// side executes first (order is arbitrary but fixed).
		top.PC = int32(br.Reconv)
		w.stack = append(w.stack,
			simtEntry{PC: int32(pc + 1), Reconv: int32(br.Reconv), Mask: fallMask},
			simtEntry{PC: int32(br.Target), Reconv: int32(br.Reconv), Mask: jumpMask},
		)
	}
	w.popReconverged()
}
