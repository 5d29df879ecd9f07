package isa

import (
	"fmt"
	"strings"
)

// Instr is one static instruction.
type Instr struct {
	Op   Op
	Dst  Reg
	Srcs [3]Reg
	// Mem is non-nil for memory opcodes.
	Mem *MemSpec
	// Branch is non-nil for OpBra.
	Branch *BranchSpec
}

// String renders a disassembly line.
func (in Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	if in.Dst != NoReg {
		fmt.Fprintf(&b, " r%d", in.Dst)
	}
	for _, s := range in.Srcs {
		if s != NoReg {
			fmt.Fprintf(&b, ", r%d", s)
		}
	}
	if in.Mem != nil {
		fmt.Fprintf(&b, " [%s sp%d]", in.Mem.Pattern, in.Mem.Space)
	}
	if in.Branch != nil {
		fmt.Fprintf(&b, " %s ->%d ^%d", in.Branch.Kind, in.Branch.Target, in.Branch.Reconv)
	}
	return b.String()
}

// Program is a validated straight-line program with structured control
// flow. Instruction indices are PCs.
type Program struct {
	// Name identifies the kernel (for reports).
	Name string
	// Code is the instruction sequence; Code[len-1] is OpExit.
	Code []Instr
	// Loops is the loop table referenced by BrLoop branches.
	Loops []LoopSpec
	// barUniform[i] is true when instruction i is a barrier that every
	// thread of the TB executes the same number of times (validated at
	// build time).
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Code) }

// At returns the instruction at pc.
func (p *Program) At(pc int) *Instr { return &p.Code[pc] }

// String renders the full disassembly.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n", p.Name)
	for i, in := range p.Code {
		fmt.Fprintf(&b, "%4d: %s\n", i, in.String())
	}
	for i, l := range p.Loops {
		fmt.Fprintf(&b, ".loop %d trips=[%d,%d] imb=%s\n", i, l.Min, l.Max, l.Imb)
	}
	return b.String()
}

// Validate checks structural well-formedness:
//   - non-empty, ends with OpExit, exactly one OpExit;
//   - memory ops carry MemSpec, branches carry BranchSpec, others don't;
//   - branch targets and reconvergence points in range; loop branches go
//     backward with reconvergence immediately after; non-loop branches go
//     forward with target ≤ reconv;
//   - loop IDs valid; registers within range;
//   - barriers only at warp-converged points (the builder guarantees
//     this; Validate re-checks nesting by scanning divergence regions).
func (p *Program) Validate() error {
	n := len(p.Code)
	if n == 0 {
		return fmt.Errorf("isa: %s: empty program", p.Name)
	}
	if p.Code[n-1].Op != OpExit {
		return fmt.Errorf("isa: %s: program must end with exit", p.Name)
	}
	exits := 0
	for pc, in := range p.Code {
		if in.Op == OpExit {
			exits++
		}
		if in.Op.IsMem() && in.Op != OpLdConst && in.Mem == nil {
			return fmt.Errorf("isa: %s: pc %d: %s lacks MemSpec", p.Name, pc, in.Op)
		}
		if !in.Op.IsMem() && in.Mem != nil {
			return fmt.Errorf("isa: %s: pc %d: %s carries MemSpec", p.Name, pc, in.Op)
		}
		if in.Op == OpBra {
			br := in.Branch
			if br == nil {
				return fmt.Errorf("isa: %s: pc %d: bra lacks BranchSpec", p.Name, pc)
			}
			if br.Target < 0 || br.Target >= n || br.Reconv < 0 || br.Reconv >= n {
				return fmt.Errorf("isa: %s: pc %d: branch target/reconv out of range", p.Name, pc)
			}
			if br.Kind == BrLoop {
				if br.Target > pc {
					return fmt.Errorf("isa: %s: pc %d: loop branch must go backward", p.Name, pc)
				}
				if br.Reconv != pc+1 {
					return fmt.Errorf("isa: %s: pc %d: loop branch must reconverge at fall-through", p.Name, pc)
				}
				if br.LoopID < 0 || br.LoopID >= len(p.Loops) {
					return fmt.Errorf("isa: %s: pc %d: loop id %d out of range", p.Name, pc, br.LoopID)
				}
				if !p.Loops[br.LoopID].Valid() {
					return fmt.Errorf("isa: %s: loop %d has invalid trip bounds", p.Name, br.LoopID)
				}
			} else {
				if br.Target <= pc {
					return fmt.Errorf("isa: %s: pc %d: forward branch must go forward", p.Name, pc)
				}
				if br.Reconv < br.Target {
					return fmt.Errorf("isa: %s: pc %d: reconv before target", p.Name, pc)
				}
				if br.Kind == BrRandom || br.Kind == BrWarpRandom {
					if !(br.P >= 0 && br.P <= 1) { // NaN included
						return fmt.Errorf("isa: %s: pc %d: probability %v out of [0,1]", p.Name, pc, br.P)
					}
				}
			}
		} else if in.Branch != nil {
			return fmt.Errorf("isa: %s: pc %d: %s carries BranchSpec", p.Name, pc, in.Op)
		}
		if in.Dst > MaxReg {
			return fmt.Errorf("isa: %s: pc %d: dst register out of range", p.Name, pc)
		}
		for _, s := range in.Srcs {
			if s > MaxReg {
				return fmt.Errorf("isa: %s: pc %d: src register out of range", p.Name, pc)
			}
		}
	}
	if exits != 1 {
		return fmt.Errorf("isa: %s: program must contain exactly one exit, found %d", p.Name, exits)
	}
	return p.validateBarrierPlacement()
}

// validateBarrierPlacement rejects barriers inside potentially-divergent
// regions: a barrier may not sit strictly between a lane-divergent branch
// (BrLaneLess/BrRandom) and its reconvergence point, nor inside a loop
// whose trip count varies per warp or per thread (threads of the TB would
// execute the barrier different numbers of times — CUDA undefined
// behaviour, and a deadlock in the simulator).
func (p *Program) validateBarrierPlacement() error {
	for pc, in := range p.Code {
		if in.Op != OpBar {
			continue
		}
		for qc, other := range p.Code {
			if other.Op != OpBra {
				continue
			}
			br := other.Branch
			switch br.Kind {
			case BrLaneLess, BrRandom:
				// Divergent region is (qc, reconv).
				if pc > qc && pc < br.Reconv {
					return fmt.Errorf("isa: %s: barrier at pc %d inside divergent region of branch at %d", p.Name, pc, qc)
				}
			case BrLoop:
				imb := p.Loops[br.LoopID].Imb
				if imb == ImbPerWarp || imb == ImbPerThread {
					// Loop body is [target, qc].
					if pc >= br.Target && pc <= qc {
						return fmt.Errorf("isa: %s: barrier at pc %d inside imbalanced loop ending at %d", p.Name, pc, qc)
					}
				}
			case BrWarpRandom:
				if pc > qc && pc < br.Reconv {
					return fmt.Errorf("isa: %s: barrier at pc %d inside warp-variant region of branch at %d", p.Name, pc, qc)
				}
			}
		}
	}
	return nil
}

// StaticMix summarizes the static instruction mix; useful for workload
// documentation and tests.
type StaticMix struct {
	SP, SFU, GlobalMem, SharedMem, ConstMem, Barriers, Branches int
}

// Mix computes the static instruction mix.
func (p *Program) Mix() StaticMix {
	var m StaticMix
	for _, in := range p.Code {
		switch {
		case in.Op == OpExit || in.Op == OpNop:
			// Not counted: neither work nor a scheduling obstacle.
		case in.Op == OpBar:
			m.Barriers++
		case in.Op == OpBra:
			m.Branches++
		case in.Op == OpLdConst:
			m.ConstMem++
		case in.Op.IsGlobalMem():
			m.GlobalMem++
		case in.Op.IsSharedMem():
			m.SharedMem++
		case in.Op.Unit() == UnitSFU:
			m.SFU++
		default:
			m.SP++
		}
	}
	return m
}
