package gpu

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/schedreg"
)

// hbProg is a modest kernel: long enough to cross several small
// heartbeat intervals, short enough for a unit test.
func hbProg(t *testing.T) *engine.Launch {
	t.Helper()
	b := isa.NewBuilder("hb-kernel")
	b.Loop(isa.LoopSpec{Min: 64, Max: 64})
	b.IAdd(1, 0, 0)
	b.LdGlobal(2, isa.MemSpec{Pattern: isa.PatCoalesced, IterVaries: true})
	b.EndLoop()
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Launch{Program: p, GridTBs: 32, BlockThreads: 256, Seed: 7}
}

// TestHeartbeatDoesNotAlterResults is the bit-identity gate for the
// telemetry hook: a run with an aggressive heartbeat listener must
// produce byte-identical results to a bare run, while the listener
// observes sane, monotonic snapshots.
func TestHeartbeatDoesNotAlterResults(t *testing.T) {
	launch := hbProg(t)
	factory, err := schedreg.New("PRO")
	if err != nil {
		t.Fatal(err)
	}

	SetHeartbeat(nil, 0)
	bare, err := Run(config.GTX480(), launch, factory, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu    sync.Mutex
		beats []Heartbeat
	)
	SetHeartbeat(func(h Heartbeat) {
		mu.Lock()
		beats = append(beats, h)
		mu.Unlock()
	}, 256)
	defer SetHeartbeat(nil, 0)
	observed, err := Run(config.GTX480(), launch, factory, Options{})
	if err != nil {
		t.Fatal(err)
	}

	a, _ := json.Marshal(bare)
	b, _ := json.Marshal(observed)
	if !bytes.Equal(a, b) {
		t.Fatal("heartbeat listener changed the simulation result")
	}

	if len(beats) < 2 {
		t.Fatalf("only %d heartbeats for a %d-cycle run at interval 256", len(beats), bare.Cycles)
	}
	last := beats[len(beats)-1]
	if !last.Final || last.Cycle != bare.Cycles {
		t.Fatalf("final heartbeat = %+v, want Final at cycle %d", last, bare.Cycles)
	}
	var iters int64
	prev := int64(0)
	for i, h := range beats {
		if h.Cycle < prev {
			t.Fatalf("heartbeat %d went backwards: %d after %d", i, h.Cycle, prev)
		}
		prev = h.Cycle
		if h.Kernel != "hb-kernel" || h.Scheduler != bare.Scheduler {
			t.Fatalf("heartbeat %d mislabeled: %+v", i, h)
		}
		if h.ResidentTBs < 0 || h.PendingTBs < 0 || h.PendingTBs > launch.GridTBs {
			t.Fatalf("heartbeat %d occupancy out of range: %+v", i, h)
		}
		iters += h.Iters
	}
	if iters <= 0 || iters > bare.Cycles {
		t.Fatalf("summed heartbeat iters %d out of range (0, %d]", iters, bare.Cycles)
	}
}

// TestHeartbeatCountsOneIterationPerCycle pins the clock loop to one
// iteration per simulated cycle on a memory-bound kernel, where long
// all-SMs-asleep stretches would tempt a clock jump: the Iters deltas
// must sum to exactly the run's cycle count and the deprecated FFJumps
// field must stay 0. A skip path added later would have to change this
// test, and so be measured, to land.
func TestHeartbeatCountsOneIterationPerCycle(t *testing.T) {
	launch := hbProg(t)
	factory, err := schedreg.New("LRR")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu           sync.Mutex
		iters, jumps int64
	)
	SetHeartbeat(func(h Heartbeat) {
		mu.Lock()
		iters += h.Iters
		jumps += h.FFJumps
		mu.Unlock()
	}, 256)
	defer SetHeartbeat(nil, 0)
	res, err := Run(config.GTX480(), launch, factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if iters != res.Cycles {
		t.Fatalf("summed heartbeat iters %d, want exactly %d cycles", iters, res.Cycles)
	}
	if jumps != 0 {
		t.Fatalf("FFJumps summed to %d, want 0", jumps)
	}
	if res.Mem.DRAMReqs == 0 {
		t.Fatal("kernel never reached DRAM; not the memory-bound case this test pins")
	}
}
