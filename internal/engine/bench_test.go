package engine_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sched"
	"repro/internal/timing"
)

// BenchmarkSMTickPipelineStall is the measurement-ladder rung for
// structural stalls: one SM holding 48 warps of a streaming-load loop,
// so the 32 L1 MSHRs stay saturated and the LD/ST unit's head
// transaction is refused on most cycles. One op is one simulated
// SM-cycle (wheel advance + memory tick + SM tick), with stall-aware
// cycle skipping on — the SM sleeps until an MSHR fill — and off, where
// it re-offers the transaction and rescans both slots every cycle.
func BenchmarkSMTickPipelineStall(b *testing.B) {
	pb := isa.NewBuilder("bench_stream")
	pb.Loop(isa.LoopSpec{Min: 1 << 20, Max: 1 << 20})
	pb.LdGlobal(1, isa.MemSpec{Pattern: isa.PatCoalesced, IterVaries: true})
	pb.FAdd(2, 1, 2)
	pb.EndLoop()
	pb.Exit()
	prog := pb.MustBuild()
	for _, tc := range []struct {
		name    string
		skipOff bool
	}{{"skip", false}, {"noskip", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := config.GTX480()
			cfg.NumSMs = 1
			cfg.DisableCycleSkip = tc.skipOff
			launch := &engine.Launch{Program: prog, GridTBs: 1 << 30, BlockThreads: 256, RegsPerThread: 16, Seed: 1}
			if err := launch.Validate(cfg); err != nil {
				b.Fatal(err)
			}
			if got := launch.ResidentTBs(cfg) * launch.WarpsPerTB(); got != 48 {
				b.Fatalf("rig holds %d resident warps, want 48", got)
			}
			wheel := timing.NewWheel()
			mem := memsys.New(cfg, wheel)
			sm := engine.NewSM(0, cfg, wheel, mem, launch, sched.NewGTO)
			for tb := 0; sm.CanAccept(); tb++ {
				sm.AssignTB(tb, 0)
			}
			cycle := int64(0)
			step := func() {
				cycle++
				wheel.Advance(cycle)
				mem.Tick(cycle)
				sm.Tick(cycle)
			}
			for i := 0; i < 2000; i++ { // fill the MSHRs and the DRAM queues
				step()
			}
			before := sm.StallTotal()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			st := sm.StallTotal()
			b.ReportMetric(float64(st.Pipeline-before.Pipeline)/float64(st.Slots()-before.Slots()), "pipeline_share")
		})
	}
}

// BenchmarkSMTickIssue is the measurement-ladder rung for the issue
// path: one SM holding 48 warps of an endless ALU + bank-conflicted
// shared-memory loop, so on most cycles a few warps can issue, many wait
// on the scoreboard and the ready shared-memory accesses queue behind
// the LD/ST unit's busy window. One op is one issued warp instruction
// (wheel advance + memory tick + SM tick for as many cycles as it
// takes); examined/issue is how many warps the scans dereferenced per
// issued instruction and rebuilds/issue how many Scheduler.Order calls
// they made — the two costs the policies differ in.
func BenchmarkSMTickIssue(b *testing.B) {
	pb := isa.NewBuilder("bench_issue")
	pb.Loop(isa.LoopSpec{Min: 1 << 20, Max: 1 << 20})
	pb.IAdd(1, 1, 2)
	pb.FMul(3, 1, 2)
	pb.LdShared(4, isa.MemSpec{Pattern: isa.PatStrided, Stride: 16}) // 4 bank passes
	pb.FAdd(5, 4, 3)
	pb.IAdd(2, 2, 5)
	pb.EndLoop()
	pb.Exit()
	prog := pb.MustBuild()
	for _, tc := range []struct {
		name    string
		factory engine.Factory
	}{{"TL", sched.NewTL}, {"LRR", sched.NewLRR}, {"GTO", sched.NewGTO}, {"PRO", core.New()}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := config.GTX480()
			cfg.NumSMs = 1
			launch := &engine.Launch{Program: prog, GridTBs: 1 << 30, BlockThreads: 256, RegsPerThread: 16, Seed: 1}
			if err := launch.Validate(cfg); err != nil {
				b.Fatal(err)
			}
			if got := launch.ResidentTBs(cfg) * launch.WarpsPerTB(); got != 48 {
				b.Fatalf("rig holds %d resident warps, want 48", got)
			}
			wheel := timing.NewWheel()
			mem := memsys.New(cfg, wheel)
			sm := engine.NewSM(0, cfg, wheel, mem, launch, tc.factory)
			for tb := 0; sm.CanAccept(); tb++ {
				sm.AssignTB(tb, 0)
			}
			cycle := int64(0)
			step := func() {
				cycle++
				wheel.Advance(cycle)
				mem.Tick(cycle)
				sm.Tick(cycle)
			}
			for i := 0; i < 2000; i++ { // past the first fetches, into the steady state
				step()
			}
			instrs, examined, rebuilds := sm.WarpInstrs, sm.WarpsExamined, sm.OrderBuilds
			b.ResetTimer()
			for sm.WarpInstrs-instrs < int64(b.N) {
				step()
			}
			b.StopTimer()
			n := float64(sm.WarpInstrs - instrs)
			b.ReportMetric(float64(sm.WarpsExamined-examined)/n, "examined/issue")
			b.ReportMetric(float64(sm.OrderBuilds-rebuilds)/n, "rebuilds/issue")
		})
	}
}
