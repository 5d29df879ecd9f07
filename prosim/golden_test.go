package prosim_test

import (
	"testing"

	"repro/prosim"
)

// TestGoldenCycleCounts pins exact cycle counts for three small runs per
// scheduler. The simulator is deterministic, so these are stable across
// runs and platforms; they exist to catch *unintentional* changes to the
// timing model. An intentional model change should update the table (and
// re-run cmd/report so EXPERIMENTS.md matches).
//
// The scalarProdGPU rows also pin the L2 counters: memsys accounts the
// re-polls of reads a full L2 MSHR file refused without probing (DESIGN.md
// §8.3), so these counts no longer follow from the tag probes alone.
func TestGoldenCycleCounts(t *testing.T) {
	golden := []struct {
		kernel, sched string
		cycles        int64
		threadInstrs  int64
		l2Accesses    int64 // == L2 misses on these rows; 0 = not pinned
	}{
		{"aesEncrypt128", "TL", 4141, 599040, 0},
		{"aesEncrypt128", "LRR", 3543, 599040, 0},
		{"aesEncrypt128", "GTO", 3822, 599040, 0},
		{"aesEncrypt128", "PRO", 3578, 599040, 0},
		{"cenergy", "TL", 3153, 829440, 0},
		{"cenergy", "LRR", 3152, 829440, 0},
		{"cenergy", "GTO", 3078, 829440, 0},
		{"cenergy", "PRO", 3060, 829440, 0},
		{"scalarProdGPU", "TL", 35845, 575488, 8062},
		{"scalarProdGPU", "LRR", 35083, 575488, 8060},
		{"scalarProdGPU", "GTO", 40551, 575488, 8083},
		{"scalarProdGPU", "PRO", 39191, 575488, 8060},
	}
	for _, g := range golden {
		w, err := prosim.WorkloadByKernel(g.kernel)
		if err != nil {
			t.Fatal(err)
		}
		w = w.Shrunk(20)
		r, err := prosim.RunWorkload(w, g.sched, prosim.Options{})
		if err != nil {
			t.Fatalf("%s/%s: %v", g.kernel, g.sched, err)
		}
		if r.Cycles != g.cycles {
			t.Errorf("%s/%s: %d cycles, golden %d (timing model changed?)",
				g.kernel, g.sched, r.Cycles, g.cycles)
		}
		if r.ThreadInstrs != g.threadInstrs {
			t.Errorf("%s/%s: %d thread-instrs, golden %d (functional behaviour changed!)",
				g.kernel, g.sched, r.ThreadInstrs, g.threadInstrs)
		}
		if g.l2Accesses != 0 && (r.Mem.L2Accesses != g.l2Accesses || r.Mem.L2Misses != g.l2Accesses) {
			t.Errorf("%s/%s: %d L2 accesses, %d misses, golden %d of each (re-poll accounting changed?)",
				g.kernel, g.sched, r.Mem.L2Accesses, r.Mem.L2Misses, g.l2Accesses)
		}
	}
}
