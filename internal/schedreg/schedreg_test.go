package schedreg

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/timing"
)

// newSM builds a small real SM so every factory can be exercised.
func newSM(t *testing.T, factory engine.Factory) *engine.SM {
	t.Helper()
	b := isa.NewBuilder("schedreg-test")
	b.IAdd(1, 0, 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.GTX480()
	wheel := timing.NewWheel()
	mem := memsys.New(cfg, wheel)
	launch := &engine.Launch{Program: prog, GridTBs: 4, BlockThreads: 64, Seed: 1}
	if err := launch.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	return engine.NewSM(0, cfg, wheel, mem, launch, factory)
}

func TestAllNamesConstruct(t *testing.T) {
	for _, name := range All() {
		f, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		sm := newSM(t, f)
		if sm.Sched == nil {
			t.Fatalf("factory %q produced nil scheduler", name)
		}
		if sm.Sched.Name() == "" {
			t.Fatalf("policy %q has an empty name", name)
		}
	}
}

func TestNamesAreRegistered(t *testing.T) {
	if len(Names()) != 4 {
		t.Fatalf("Names() = %v, want the paper's four", Names())
	}
	for _, name := range Names() {
		if _, err := New(name); err != nil {
			t.Fatalf("comparison-order name %q not registered: %v", name, err)
		}
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := New("BOGUS"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestResolveSpecs(t *testing.T) {
	good := []string{
		"PRO",
		"GTO",
		"PRO+threshold=500",
		"PRO+threshold=default",
		"PRO+ordertrace+threshold=default",
		"PRO+ordertrace+threshold=250",
		"PRO-nobar+threshold=1000",
		"PRO-norm+ordertrace",
	}
	for _, spec := range good {
		f, err := Resolve(spec)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", spec, err)
		}
		sm := newSM(t, f)
		if sm.Sched == nil {
			t.Fatalf("Resolve(%q) produced nil scheduler", spec)
		}
	}
	bad := []string{
		"",
		"BOGUS",
		"BOGUS+threshold=500",
		"GTO+threshold=500", // only the PRO family takes options
		"PRO+threshold=0",   // threshold must be positive
		"PRO+threshold=-5",
		"PRO+threshold=abc",
		"PRO+turbo",               // unknown option
		"PRO-adaptive+ordertrace", // adaptive takes no options
	}
	for _, spec := range bad {
		if _, err := Resolve(spec); err == nil {
			t.Fatalf("Resolve(%q) accepted", spec)
		}
	}
}

// TestEveryPolicyIsServedFromTheOrderCache streams TBs of a kernel with
// global loads and barriers through one SM under every registered
// policy: the engine must rebuild an order on fewer slot-cycles than it
// has resident TBs on, i.e. no policy rebuilds every cycle.
func TestEveryPolicyIsServedFromTheOrderCache(t *testing.T) {
	b := isa.NewBuilder("order-cache")
	b.Loop(isa.LoopSpec{Min: 6, Max: 6})
	b.LdGlobal(1, isa.MemSpec{Pattern: isa.PatCoalesced, IterVaries: true})
	b.FAdd(2, 1, 1)
	b.IAdd(3, 3, 3)
	b.Bar()
	b.EndLoop()
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const grid = 12
	for _, name := range All() {
		t.Run(name, func(t *testing.T) {
			f, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.GTX480()
			wheel := timing.NewWheel()
			mem := memsys.New(cfg, wheel)
			launch := &engine.Launch{Program: prog, GridTBs: grid, BlockThreads: 256, Seed: 1}
			if err := launch.Validate(cfg); err != nil {
				t.Fatal(err)
			}
			sm := engine.NewSM(0, cfg, wheel, mem, launch, f)
			next := 0
			sm.PendingTBsFn = func() int { return grid - next }
			var slotCycles int64
			for cycle := int64(1); next < grid || !sm.Done(); cycle++ {
				if cycle > 1e6 {
					t.Fatal("the kernel did not finish")
				}
				wheel.Advance(cycle)
				mem.Tick(cycle)
				for next < grid && sm.CanAccept() {
					sm.AssignTB(next, cycle)
					next++
				}
				if !sm.Done() {
					slotCycles += int64(cfg.SchedulersPerSM)
				}
				sm.Tick(cycle)
			}
			t.Logf("%d order builds on %d slot-cycles with resident TBs", sm.OrderBuilds, slotCycles)
			if sm.OrderBuilds >= slotCycles {
				t.Errorf("%d order builds on %d slot-cycles with resident TBs", sm.OrderBuilds, slotCycles)
			}
		})
	}
}

// TestIdentitySchedulersMatchRegistry keeps `make identity`'s scheduler
// list, a copy of All() in the Makefile, in step with the registry.
func TestIdentitySchedulersMatchRegistry(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "IDENTITY_SCHEDS := "
	for _, line := range strings.Split(string(mk), "\n") {
		if list, ok := strings.CutPrefix(line, prefix); ok {
			if want := strings.Join(All(), ","); list != want {
				t.Fatalf("Makefile has %s%s, schedreg.All() is %s", prefix, list, want)
			}
			return
		}
	}
	t.Fatalf("the Makefile has no %q line", prefix)
}
