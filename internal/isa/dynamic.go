package isa

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/xrand"
)

// This file implements the dynamic (per-execution) semantics that the
// engine queries: loop trip counts, branch predicate masks, global-memory
// line addresses, and shared-memory bank-conflict passes. Everything is a
// pure function of coordinates hashed through splitmix64, so simulations
// are reproducible and identical across warp schedulers (a scheduler must
// never change *what* executes, only *when*).

// Trips returns the trip count of loop loopID for the given thread.
// kseed is the kernel seed; tb is the global thread-block index; warpInTB
// and lane locate the thread within the block.
func (p *Program) Trips(loopID int, kseed uint64, tb, warpInTB, lane int) int {
	spec := p.Loops[loopID]
	if spec.Min == spec.Max {
		return spec.Min
	}
	span := uint64(spec.Max - spec.Min + 1)
	var h uint64
	switch spec.Imb {
	case ImbNone:
		// Same for every thread of the kernel (but still seed-dependent).
		h = xrand.Mix2(kseed, uint64(loopID))
	case ImbPerTB:
		h = xrand.Mix3(kseed, uint64(loopID), uint64(tb))
	case ImbPerWarp:
		h = xrand.Mix4(kseed, uint64(loopID), uint64(tb), uint64(warpInTB))
	case ImbPerThread:
		h = xrand.Mix4(kseed, uint64(loopID), uint64(tb), uint64(warpInTB)<<8|uint64(lane))
	}
	return spec.Min + int(h%span)
}

// PredMask evaluates a non-loop branch predicate for every lane in
// activeMask and returns the mask of predicate-TRUE lanes. iter is the
// warp's dynamic execution count of this branch, so BrRandom re-draws per
// visit. (Loop branches are evaluated from per-thread trip counters held
// by the engine, not here.)
func PredMask(br *BranchSpec, kseed uint64, tb, warpInTB, pc int, iter int64, activeMask uint32) uint32 {
	switch br.Kind {
	case BrLaneLess:
		if br.N >= 32 {
			return activeMask
		}
		return activeMask & (uint32(1)<<uint(br.N) - 1)
	case BrRandom:
		var m uint32
		for lanes := activeMask; lanes != 0; {
			l := bits.TrailingZeros32(lanes)
			lanes &^= 1 << uint(l)
			h := xrand.Mix4(kseed, uint64(tb)<<16|uint64(warpInTB), uint64(pc), uint64(iter)<<8|uint64(l))
			if xrand.Uniform01(h) < br.P {
				m |= 1 << uint(l)
			}
		}
		return m
	case BrWarpRandom:
		h := xrand.Mix4(kseed, uint64(tb)<<16|uint64(warpInTB), uint64(pc), uint64(iter))
		if xrand.Uniform01(h) < br.P {
			return activeMask
		}
		return 0
	}
	return 0
}

// spaceBase places each address space in a disjoint 1TB-aligned range.
func spaceBase(space uint8) uint64 { return (uint64(space) + 1) << 40 }

// streamChunk is the per-iteration address advance for IterVaries
// patterns: large enough that successive iterations never hit in L1/L2
// (streaming), small enough to stay within a DRAM channel's row spread.
const streamChunk = 1 << 22

// LineAddrs appends to dst the distinct cache-line addresses touched by
// the active lanes of a warp executing the memory instruction at pc, and
// returns the extended slice. blockDim is threads per TB; lineSize must be
// a power of two.
func LineAddrs(dst []uint64, m *MemSpec, kseed uint64, tb, warpInTB, pc int, iter int64, activeMask uint32, blockDim, lineSize int) []uint64 {
	base := spaceBase(m.Space)
	lineMask := ^uint64(lineSize - 1)
	it := int64(0)
	if m.IterVaries {
		it = iter
	}
	push := func(addr uint64) {
		line := addr & lineMask
		for _, a := range dst {
			if a == line {
				return
			}
		}
		dst = append(dst, line)
	}
	warpBase := tb*blockDim + warpInTB*config.WarpSize

	switch m.Pattern {
	case PatBroadcast:
		push(base + uint64(it)*uint64(lineSize))
	case PatCoalesced:
		for lanes := activeMask; lanes != 0; {
			l := bits.TrailingZeros32(lanes)
			lanes &^= 1 << uint(l)
			gtid := warpBase + l
			push(base + uint64(it)*streamChunk + uint64(gtid)*4)
		}
	case PatStrided:
		stride := m.Stride
		if stride <= 0 {
			stride = 4
		}
		for lanes := activeMask; lanes != 0; {
			l := bits.TrailingZeros32(lanes)
			lanes &^= 1 << uint(l)
			gtid := warpBase + l
			push(base + uint64(it)*streamChunk + uint64(gtid)*uint64(stride))
		}
	case PatRandom:
		region := m.Region
		if region < uint64(lineSize) {
			region = uint64(lineSize)
		}
		nlines := region / uint64(lineSize)
		for lanes := activeMask; lanes != 0; {
			l := bits.TrailingZeros32(lanes)
			lanes &^= 1 << uint(l)
			gtid := warpBase + l
			h := xrand.Mix4(kseed, uint64(pc), uint64(gtid), uint64(it))
			push(base + (h%nlines)*uint64(lineSize))
		}
	case PatTBLocal:
		region := m.Region
		if region < uint64(lineSize) {
			region = uint64(lineSize)
		}
		nlines := region / uint64(lineSize)
		window := base + uint64(tb)*region
		for lanes := activeMask; lanes != 0; {
			l := bits.TrailingZeros32(lanes)
			lanes &^= 1 << uint(l)
			h := xrand.Mix4(kseed, uint64(pc), uint64(warpInTB)<<8|uint64(l), uint64(it))
			push(window + (h%nlines)*uint64(lineSize))
		}
	}
	return dst
}

// BankPasses returns the number of serialized shared-memory bank passes
// for the active lanes: 1 for conflict-free (or broadcast) access, k when
// some bank is touched by k lanes at distinct addresses. banks is the
// number of shared-memory banks (a power of two in practice, ≤ 64: Validate).
func BankPasses(m *MemSpec, kseed uint64, tb, warpInTB, pc int, iter int64, activeMask uint32, banks int) int {
	if activeMask == 0 {
		return 1
	}
	var counts [64]int
	it := int64(0)
	if m.IterVaries {
		it = iter
	}
	maxPass := 1
	switch m.Pattern {
	case PatBroadcast:
		return 1
	case PatCoalesced:
		// Word-consecutive: lane l hits bank l%banks — conflict-free.
		return 1
	case PatStrided:
		strideWords := m.Stride / 4
		if strideWords <= 0 {
			strideWords = 1
		}
		for lanes := activeMask; lanes != 0; {
			l := bits.TrailingZeros32(lanes)
			lanes &^= 1 << uint(l)
			b := (l * strideWords) % banks
			counts[b]++
			if counts[b] > maxPass {
				maxPass = counts[b]
			}
		}
	case PatRandom, PatTBLocal:
		for lanes := activeMask; lanes != 0; {
			l := bits.TrailingZeros32(lanes)
			lanes &^= 1 << uint(l)
			h := xrand.Mix4(kseed, uint64(pc)<<8|uint64(l), uint64(tb)<<8|uint64(warpInTB), uint64(it))
			b := int(h % uint64(banks))
			counts[b]++
			if counts[b] > maxPass {
				maxPass = counts[b]
			}
		}
	}
	return maxPass
}
