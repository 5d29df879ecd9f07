package experiments

import (
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workloads"
)

// tinySuite runs two small-ish kernels under all four schedulers with
// heavily shrunk grids; shared by the tests below.
func tinySuite(t *testing.T) *Suite {
	t.Helper()
	var ws []*workloads.Workload
	for _, k := range []string{"aesEncrypt128", "scalarProdGPU"} {
		w, err := workloads.ByKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w.Shrunk(20))
	}
	s, err := RunSuite(ws, []string{"TL", "LRR", "GTO", "PRO"}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteShapes(t *testing.T) {
	s := tinySuite(t)

	f4 := s.ComputeFig4()
	if len(f4.Rows) != 2 {
		t.Fatalf("Fig4 rows = %d", len(f4.Rows))
	}
	for _, b := range BaselineOrder {
		if f4.Geomean[b] <= 0 {
			t.Fatalf("Fig4 geomean over %s = %v", b, f4.Geomean[b])
		}
	}
	for _, r := range f4.Rows {
		for _, b := range BaselineOrder {
			if r.Over[b] <= 0 {
				t.Fatalf("%s speedup over %s = %v", r.Kernel, b, r.Over[b])
			}
		}
	}

	apps := s.Apps()
	if len(apps) != 2 || apps[0] != "AES" || apps[1] != "ScalarProd" {
		t.Fatalf("Apps = %v", apps)
	}

	for _, sched := range BaselineOrder {
		rows := s.ComputeFig1(sched)
		if len(rows) != 2 {
			t.Fatalf("Fig1 rows = %d", len(rows))
		}
		for _, r := range rows {
			sum := r.SBFrac + r.IdleFrac + r.PipeFrac
			if sum < 0.999 || sum > 1.001 {
				t.Fatalf("Fig1 %s/%s fractions sum to %v", sched, r.App, sum)
			}
		}
	}

	t3 := s.ComputeTable3()
	if len(t3.Rows) != 2 {
		t.Fatalf("Table3 rows = %d", len(t3.Rows))
	}
	for _, b := range BaselineOrder {
		if t3.Geomean[b].Total <= 0 {
			t.Fatalf("Table3 geomean total over %s = %v", b, t3.Geomean[b].Total)
		}
	}
}

func TestFormatters(t *testing.T) {
	s := tinySuite(t)
	f4 := FormatFig4(s.ComputeFig4())
	for _, frag := range []string{"GEOMEAN", "aesEncrypt128", "scalarProdGPU", "vs TL"} {
		if !strings.Contains(f4, frag) {
			t.Errorf("Fig4 text lacks %q", frag)
		}
	}
	t3 := s.ComputeTable3()
	if !strings.Contains(FormatTable3(t3), "GEOMEAN") {
		t.Error("Table3 text lacks GEOMEAN")
	}
	if !strings.Contains(FormatFig5(t3), "ScalarProd") {
		t.Error("Fig5 text lacks app name")
	}
	if !strings.Contains(FormatFig1("LRR", s.ComputeFig1("LRR")), "AES") {
		t.Error("Fig1 text lacks app name")
	}
}

func TestTimelineAndTrace(t *testing.T) {
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Shrunk(30)

	spans, r, err := Timeline(w, "LRR", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans on SM 0")
	}
	for _, sp := range spans {
		if sp.SM != 0 {
			t.Fatal("foreign SM in filtered spans")
		}
	}
	txt := FormatTimeline("x", 0, spans, r.Cycles)
	if !strings.Contains(txt, "TB") {
		t.Error("timeline text empty")
	}

	samples, err := OrderTrace(w, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no order samples")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycle <= samples[i-1].Cycle {
			t.Fatal("samples not in increasing cycle order")
		}
	}
	out := FormatOrderTrace(samples, 4)
	if !strings.Contains(out, "CYCLE") {
		t.Error("order trace text malformed")
	}
	if FormatOrderTrace(nil, 0) == "" {
		t.Error("empty trace should render a placeholder")
	}
	_ = stats.OrderSample{}
}

func TestRunSuiteUnknownScheduler(t *testing.T) {
	w, _ := workloads.ByKernel("aesEncrypt128")
	_, err := RunSuite([]*workloads.Workload{w.Shrunk(5)}, []string{"BOGUS"}, 0, nil)
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestAppStallsSumKernels(t *testing.T) {
	s := tinySuite(t)
	// AES has one kernel: app aggregate equals the kernel's stalls.
	aes := s.AppStalls("AES", "LRR")
	if aes != s.Kernels["aesEncrypt128"]["LRR"].Stalls {
		t.Fatal("single-kernel app aggregate differs from kernel stalls")
	}
	// Unknown app aggregates to zero.
	var zero = s.AppStalls("nope", "LRR")
	if zero.Total() != 0 || zero.Issued != 0 {
		t.Fatal("unknown app produced stalls")
	}
}

func TestComputeFig4SpeedupConsistency(t *testing.T) {
	s := tinySuite(t)
	f4 := s.ComputeFig4()
	for _, row := range f4.Rows {
		pro := s.Kernels[row.Kernel]["PRO"]
		for _, b := range BaselineOrder {
			base := s.Kernels[row.Kernel][b]
			want := float64(base.Cycles) / float64(pro.Cycles)
			if diff := row.Over[b] - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s over %s: %v, want %v", row.Kernel, b, row.Over[b], want)
			}
		}
	}
}
