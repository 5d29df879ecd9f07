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

// TestHeartbeatObservesFastForwardJumps pins that the FFJumps delta
// actually counts event-horizon jumps on a memory-bound kernel, where
// fast-forward is known to engage.
func TestHeartbeatObservesFastForwardJumps(t *testing.T) {
	launch := hbProg(t)
	factory, err := schedreg.New("LRR")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		jumps int64
	)
	SetHeartbeat(func(h Heartbeat) {
		mu.Lock()
		jumps += h.FFJumps
		mu.Unlock()
	}, 256)
	defer SetHeartbeat(nil, 0)
	if _, err := Run(config.GTX480(), launch, factory, Options{}); err != nil {
		t.Fatal(err)
	}
	if jumps == 0 {
		t.Fatal("no fast-forward jumps observed on a memory-bound kernel")
	}
}
