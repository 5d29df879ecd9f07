// Package config defines the hardware configuration of the simulated GPU.
//
// The default configuration, GTX480, mirrors Table I of the paper
// (an NVIDIA Fermi-class part as configured in GPGPU-Sim 3.2.2):
// 14 SMs, at most 8 thread blocks and 1536 threads per SM, 48KB shared
// memory, 16KB L1 data cache, 768KB shared L2, 32768 registers per SM,
// two warp schedulers per SM and an FR-FCFS DRAM scheduler.
package config

import (
	"errors"
	"fmt"
)

// WarpSize is the number of threads in a warp. All NVIDIA architectures
// the paper discusses use 32; the simulator assumes it in several packed
// bitmask representations (uint32 active masks), so it is a constant
// rather than a configuration field.
const WarpSize = 32

// Config describes one simulated GPU. Zero values are invalid; construct
// via GTX480 (or copy and modify) and call Validate before use.
type Config struct {
	// --- Core/SM organization (Table I) ---

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// MaxTBsPerSM is the maximum number of resident thread blocks per SM.
	MaxTBsPerSM int
	// MaxThreadsPerSM is the maximum number of resident threads per SM.
	MaxThreadsPerSM int
	// SharedMemPerSM is the shared-memory capacity per SM in bytes.
	SharedMemPerSM int
	// RegistersPerSM is the number of 4-byte registers per SM.
	RegistersPerSM int
	// SchedulersPerSM is the number of warp schedulers per SM. Warps are
	// statically partitioned between schedulers by warp-slot parity, as on
	// Fermi (paper footnote 4).
	SchedulersPerSM int

	// --- Execution latencies (in core cycles) ---

	// ALULatency is the result latency of simple integer/float pipeline ops.
	ALULatency int
	// SFULatency is the result latency of special-function ops
	// (rcp, sqrt, sin, ...).
	SFULatency int
	// SharedLatency is the result latency of a conflict-free shared-memory
	// access. Bank conflicts serialize in WarpSize-bank groups and add
	// SharedConflictPenalty cycles per extra bank pass.
	SharedLatency int
	// SharedConflictPenalty is the additional latency per serialized
	// shared-memory bank pass beyond the first.
	SharedConflictPenalty int
	// ConstLatency is the latency of a constant-cache hit (constant memory
	// is modeled as always hitting; constants are broadcast).
	ConstLatency int

	// --- Execution unit structure ---

	// SFUQueueDepth is the number of in-flight warp instructions the SFU
	// pipeline accepts before back-pressuring (pipeline stall).
	SFUQueueDepth int
	// MemQueueDepth is the number of in-flight warp memory instructions the
	// LD/ST unit accepts before back-pressuring.
	MemQueueDepth int
	// SharedBanks is the number of shared-memory banks.
	SharedBanks int

	// --- L1 data cache (per SM) ---

	L1Size   int // bytes
	L1Assoc  int
	L1Line   int // bytes; also the coalescing granularity
	L1MSHRs  int // miss-status holding registers
	L1Merges int // max requests merged per MSHR entry
	// L1HitLatency is the load-to-use latency of an L1 hit in core cycles.
	L1HitLatency int
	// StoreBufferPerSM caps outstanding global stores per SM; a full
	// buffer back-pressures the LD/ST unit (pipeline stall).
	StoreBufferPerSM int

	// --- L2 cache (shared, partitioned) ---

	L2Size       int // total bytes across partitions
	L2Assoc      int
	L2Partitions int // address-interleaved partitions (memory channels)
	L2HitLatency int // core cycles from L2 lookup to data at L2 boundary

	// --- Interconnect ---

	// IcntLatency is the one-way SM<->L2 latency in cycles.
	IcntLatency int
	// IcntBytesPerCycle is the per-direction, per-SM-port bandwidth.
	IcntBytesPerCycle int

	// --- DRAM (per partition/channel) ---

	DRAMBanksPerChannel int
	// DRAMRowHit is the service time of a row-buffer hit, in core cycles.
	DRAMRowHit int
	// DRAMRowMiss is the service time of a row activate+access (precharge
	// folded in), in core cycles.
	DRAMRowMiss int
	// DRAMRowBytes is the size of an open row in bytes.
	DRAMRowBytes int
	// DRAMQueueDepth is the per-channel request-queue capacity.
	DRAMQueueDepth int

	// --- Instruction supply ---

	// IBufferEntries is the number of decoded instructions buffered per
	// warp. Refill takes IFetchLatency cycles and models the fetch/decode
	// front end; an empty i-buffer makes the warp invalid for issue
	// (an Idle-stall contributor, as in GPGPU-Sim).
	IBufferEntries int
	IFetchLatency  int

	// --- Optional instruction cache (disabled when ICacheSize == 0) ---
	//
	// When enabled, each i-buffer refill probes a per-SM instruction
	// cache at the warp's current PC; a miss adds ICacheMissLatency to
	// the refill (another Idle source, as in GPGPU-Sim). ICacheLineInstrs
	// instructions share a cache line.
	ICacheSize        int // bytes; 0 disables the model
	ICacheAssoc       int
	ICacheLineInstrs  int
	ICacheMissLatency int

	// --- Simulation-speed switches ---
	//
	// These force the engine's naive per-cycle paths for differential
	// testing. They cannot change any observable result — the fast paths
	// are bit-identical by construction (see DESIGN.md, "Performance
	// notes") — so they are excluded from result-cache keys.

	// DisableOrderCache rebuilds every scheduler slot's warp order each
	// cycle instead of reusing the generation-tagged cached order.
	DisableOrderCache bool `json:"-"`
	// DisableCycleSkip ticks fully-stalled SMs cycle by cycle instead of
	// letting them sleep until their next wake-up event and accounting
	// the slept cycles' stalls in bulk on wake.
	DisableCycleSkip bool `json:"-"`
	// DisableWarpPooling allocates fresh warp/thread-block objects on
	// every TB assignment instead of recycling retired ones.
	DisableWarpPooling bool `json:"-"`
}

// GTX480 returns the configuration from Table I of the paper.
func GTX480() *Config {
	return &Config{
		NumSMs:          14,
		MaxTBsPerSM:     8,
		MaxThreadsPerSM: 1536,
		SharedMemPerSM:  48 * 1024,
		RegistersPerSM:  32768,
		SchedulersPerSM: 2,

		ALULatency:            10,
		SFULatency:            20,
		SharedLatency:         24,
		SharedConflictPenalty: 2,
		ConstLatency:          10,

		SFUQueueDepth: 8,
		MemQueueDepth: 8,
		SharedBanks:   32,

		L1Size:           16 * 1024,
		L1Assoc:          4,
		L1Line:           128,
		L1MSHRs:          32,
		L1Merges:         8,
		L1HitLatency:     40,
		StoreBufferPerSM: 16,

		L2Size:       768 * 1024,
		L2Assoc:      8,
		L2Partitions: 6,
		L2HitLatency: 120,

		IcntLatency:       24,
		IcntBytesPerCycle: 32,

		DRAMBanksPerChannel: 8,
		DRAMRowHit:          40,
		DRAMRowMiss:         100,
		DRAMRowBytes:        2048,
		DRAMQueueDepth:      32,

		IBufferEntries: 2,
		IFetchLatency:  4,
	}
}

// MaxWarpsPerSM returns the warp-slot capacity of one SM.
func (c *Config) MaxWarpsPerSM() int { return c.MaxThreadsPerSM / WarpSize }

// Validate checks internal consistency and returns a descriptive error for
// the first problem found.
func (c *Config) Validate() error {
	type check struct {
		ok  bool
		msg string
	}
	checks := []check{
		{c.NumSMs > 0, "NumSMs must be positive"},
		{c.MaxTBsPerSM > 0, "MaxTBsPerSM must be positive"},
		{c.MaxThreadsPerSM >= WarpSize, "MaxThreadsPerSM must hold at least one warp"},
		{c.MaxThreadsPerSM%WarpSize == 0, "MaxThreadsPerSM must be a multiple of the warp size"},
		{c.SchedulersPerSM > 0, "SchedulersPerSM must be positive"},
		{c.SharedMemPerSM >= 0, "SharedMemPerSM must be non-negative"},
		{c.RegistersPerSM > 0, "RegistersPerSM must be positive"},
		{c.ALULatency > 0, "ALULatency must be positive"},
		{c.SFULatency > 0, "SFULatency must be positive"},
		{c.SharedLatency > 0, "SharedLatency must be positive"},
		{c.ConstLatency > 0, "ConstLatency must be positive"},
		{c.SFUQueueDepth > 0, "SFUQueueDepth must be positive"},
		{c.MemQueueDepth > 0, "MemQueueDepth must be positive"},
		{c.SharedBanks > 0, "SharedBanks must be positive"},
		{c.SharedBanks <= 64, "SharedBanks must be at most 64"}, // isa.BankPasses' counters
		{c.L1Size > 0 && c.L1Assoc > 0 && c.L1Line > 0, "L1 geometry must be positive"},
		{c.L1Line&(c.L1Line-1) == 0, "L1Line must be a power of two"},
		{c.L1Size%(c.L1Assoc*c.L1Line) == 0, "L1Size must be divisible by L1Assoc*L1Line"},
		{isPow2(c.L1Size / max(1, c.L1Assoc*c.L1Line)), "L1 set count must be a power of two"},
		{c.L1MSHRs > 0 && c.L1Merges > 0, "L1 MSHR geometry must be positive"},
		{c.L1HitLatency > 0, "L1HitLatency must be positive"},
		{c.StoreBufferPerSM > 0, "StoreBufferPerSM must be positive"},
		{c.L2Size > 0 && c.L2Assoc > 0, "L2 geometry must be positive"},
		{c.L2Partitions > 0, "L2Partitions must be positive"},
		{c.L2Size%c.L2Partitions == 0, "L2Size must divide evenly across partitions"},
		{(c.L2Size/c.L2Partitions)%(c.L2Assoc*c.L1Line) == 0, "L2 partition size must be divisible by L2Assoc*L1Line"},
		{isPow2(c.L2Size / max(1, c.L2Partitions*c.L2Assoc*c.L1Line)), "L2 partition set count must be a power of two"},
		{c.L2HitLatency > 0, "L2HitLatency must be positive"},
		{c.IcntLatency >= 0, "IcntLatency must be non-negative"},
		{c.IcntBytesPerCycle > 0, "IcntBytesPerCycle must be positive"},
		{c.DRAMBanksPerChannel > 0, "DRAMBanksPerChannel must be positive"},
		{c.DRAMRowHit > 0, "DRAMRowHit must be positive"},
		{c.DRAMRowMiss >= c.DRAMRowHit, "DRAMRowMiss must be at least DRAMRowHit"},
		{c.DRAMRowBytes >= c.L1Line, "DRAMRowBytes must be at least one cache line"},
		{c.DRAMRowBytes&(c.DRAMRowBytes-1) == 0, "DRAMRowBytes must be a power of two"},
		{c.DRAMQueueDepth > 0, "DRAMQueueDepth must be positive"},
		{c.IBufferEntries > 0, "IBufferEntries must be positive"},
		{c.IFetchLatency >= 0, "IFetchLatency must be non-negative"},
		{c.ICacheSize == 0 || (c.ICacheAssoc > 0 && c.ICacheLineInstrs > 0 && c.ICacheMissLatency > 0),
			"enabled ICache needs positive assoc, line and miss latency"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return errors.New("config: " + ch.msg)
		}
	}
	if c.MaxWarpsPerSM()%c.SchedulersPerSM != 0 {
		return fmt.Errorf("config: warp slots (%d) must divide evenly among %d schedulers",
			c.MaxWarpsPerSM(), c.SchedulersPerSM)
	}
	return nil
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Clone returns a deep copy (Config has no reference fields, so a value
// copy suffices; Clone exists so callers do not depend on that detail).
func (c *Config) Clone() *Config {
	dup := *c
	return &dup
}
