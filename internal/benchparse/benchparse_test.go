package benchparse

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTableIConfig            	21396355	        58.05 ns/op	       0 B/op	       0 allocs/op
BenchmarkTableIConfig            	21753115	        55.68 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig4Speedup             	       1	1481227188 ns/op	         1.078 geomean_vs_GTO	32533784 B/op	  678739 allocs/op
BenchmarkFig4Speedup             	       1	1423097186 ns/op	         1.078 geomean_vs_GTO	32532600 B/op	  678737 allocs/op
BenchmarkSimulatorThroughput-8   	     100	  10353548 ns/op	    212391 sim_cycles/s	 1115302 B/op	    9077 allocs/op
BenchmarkSimulatorThroughput-8   	     124	   9466913 ns/op	    232283 sim_cycles/s	 1115235 B/op	    9076 allocs/op
BenchmarkAblationThreshold/threshold250 	      51	  26850083 ns/op	      5410 cycles	 1103397 B/op	    9165 allocs/op
PASS
ok  	repro	123.456s
`

func parseSample(t *testing.T) map[string]*Result {
	t.Helper()
	rs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]*Result, len(rs))
	for _, r := range rs {
		m[r.Name] = r
	}
	return m
}

func TestParseAggregatesRepetitions(t *testing.T) {
	m := parseSample(t)
	if len(m) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(m))
	}
	cfg := m["TableIConfig"]
	if cfg.Runs != 2 || cfg.NsOp != 55.68 {
		t.Errorf("TableIConfig = %+v, want 2 runs with min ns/op 55.68", cfg)
	}
	f4 := m["Fig4Speedup"]
	if f4.NsOp != 1423097186 || f4.AllocsOp != 678737 {
		t.Errorf("Fig4Speedup min ns/op=%v allocs=%v, want 1423097186/678737", f4.NsOp, f4.AllocsOp)
	}
	if f4.Metrics["geomean_vs_GTO"] != 1.078 {
		t.Errorf("Fig4Speedup geomean metric = %v, want 1.078", f4.Metrics["geomean_vs_GTO"])
	}
}

func TestParseStripsGomaxprocsSuffixAndMaxesRates(t *testing.T) {
	m := parseSample(t)
	tp, ok := m["SimulatorThroughput"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if got := tp.Metrics["sim_cycles/s"]; got != 232283 {
		t.Errorf("sim_cycles/s = %v, want max 232283", got)
	}
}

func TestParseSubBenchmarkMetrics(t *testing.T) {
	m := parseSample(t)
	th := m["AblationThreshold/threshold250"]
	if th == nil || th.Metrics["cycles"] != 5410 {
		t.Fatalf("sub-benchmark cycles = %+v, want 5410", th)
	}
}

func TestParseWithoutBenchmem(t *testing.T) {
	rs, err := Parse(strings.NewReader("BenchmarkX 	 10	 100 ns/op\n"))
	if err != nil || len(rs) != 1 {
		t.Fatalf("Parse = %v, %v", rs, err)
	}
	if rs[0].AllocsOp != -1 || rs[0].BytesOp != -1 {
		t.Errorf("missing -benchmem should leave allocs/bytes at -1, got %+v", rs[0])
	}
}

func snap(bench map[string]*Result, golden map[string]GoldenEntry) *Snapshot {
	return &Snapshot{Schema: SnapshotSchema, Benchmarks: bench, Golden: golden}
}

func TestDiffThroughputDrop(t *testing.T) {
	base := snap(map[string]*Result{
		"T": {Name: "T", Metrics: map[string]float64{"sim_cycles/s": 200000}},
	}, nil)
	cur := snap(map[string]*Result{
		"T": {Name: "T", Metrics: map[string]float64{"sim_cycles/s": 140000}},
	}, nil)
	fs := Diff(base, cur, Thresholds{})
	if len(fs) != 1 || !fs[0].Fail {
		t.Fatalf("30%% throughput drop must fail: %+v", fs)
	}
	cur.Benchmarks["T"].Metrics["sim_cycles/s"] = 160000
	if fs := Diff(base, cur, Thresholds{}); len(fs) != 0 {
		t.Fatalf("20%% drop is within the default 25%% threshold: %+v", fs)
	}
}

func TestDiffAllocRise(t *testing.T) {
	base := snap(map[string]*Result{"A": {Name: "A", AllocsOp: 1000}}, nil)
	cur := snap(map[string]*Result{"A": {Name: "A", AllocsOp: 1200}}, nil)
	fs := Diff(base, cur, Thresholds{})
	if len(fs) != 1 || !fs[0].Fail {
		t.Fatalf("20%% alloc rise must fail: %+v", fs)
	}
	// Small absolute rises are noise even when the percentage is big.
	base.Benchmarks["A"].AllocsOp = 4
	cur.Benchmarks["A"].AllocsOp = 12
	if fs := Diff(base, cur, Thresholds{}); len(fs) != 0 {
		t.Fatalf("rise within AllocSlack must pass: %+v", fs)
	}
}

func TestDiffGoldenCycles(t *testing.T) {
	base := snap(nil, map[string]GoldenEntry{
		"G": {JobKey: "k1", Cycles: 5410},
	})
	same := snap(nil, map[string]GoldenEntry{
		"G": {JobKey: "k1", Cycles: 5410},
	})
	if fs := Diff(base, same, Thresholds{}); len(fs) != 0 {
		t.Fatalf("identical golden entry must pass: %+v", fs)
	}
	drift := snap(nil, map[string]GoldenEntry{
		"G": {JobKey: "k1", Cycles: 5411},
	})
	fs := Diff(base, drift, Thresholds{})
	if len(fs) != 1 || !fs[0].Fail {
		t.Fatalf("cycle drift under the same job key must fail: %+v", fs)
	}
	rekeyed := snap(nil, map[string]GoldenEntry{
		"G": {JobKey: "k2", Cycles: 9999},
	})
	fs = Diff(base, rekeyed, Thresholds{})
	if len(fs) != 1 || fs[0].Fail {
		t.Fatalf("changed job key must skip, not fail: %+v", fs)
	}
}

func TestDiffNewBenchmarkInformational(t *testing.T) {
	one := map[string]*Result{"N": {Name: "N", AllocsOp: 5}}
	gold := map[string]GoldenEntry{"G": {JobKey: "k1", Cycles: 5410}}
	for _, tc := range []struct {
		name      string
		base, cur *Snapshot
		bench     string
		msg       string
	}{
		{"new benchmark", snap(map[string]*Result{}, nil), snap(one, nil), "N", "new benchmark (no baseline)"},
		{"removed benchmark", snap(one, nil), snap(map[string]*Result{}, nil), "N", "removed benchmark (was in baseline)"},
		{"new golden", snap(nil, nil), snap(nil, gold), "G", "new golden entry (no baseline)"},
		{"removed golden", snap(nil, gold), snap(nil, nil), "G", "removed golden entry (was in baseline)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := Diff(tc.base, tc.cur, Thresholds{})
			if len(fs) != 1 || fs[0].Fail || fs[0].Bench != tc.bench || fs[0].Msg != tc.msg {
				t.Fatalf("want one informational %q finding on %s, got %+v", tc.msg, tc.bench, fs)
			}
		})
	}
}
