package prosim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/prosim"
)

// TestGoldenCycleCounts pins exact cycle counts for small runs per
// scheduler. The simulator is deterministic, so these are stable across
// runs and platforms; they exist to catch *unintentional* changes to the
// timing model. An intentional model change should update the table (and
// re-run prosim report so EXPERIMENTS.md matches).
//
// The scalarProdGPU rows also pin the L2 counters: memsys accounts the
// re-polls of reads a full L2 MSHR file refused without probing (DESIGN.md
// §8.3), so these counts no longer follow from the tag probes alone.
//
// The 42-TB rows are the re-sort THRESHOLD ablation and the future-work
// variants at two residency batches per SM.
func TestGoldenCycleCounts(t *testing.T) {
	golden := []struct {
		kernel, sched string
		tbs           int
		threshold     int64 // PRO re-sort threshold; 0 = the scheduler's default
		cycles        int64
		threadInstrs  int64
		l2Accesses    int64 // == L2 misses on these rows; 0 = not pinned
	}{
		{"aesEncrypt128", "TL", 20, 0, 4141, 599040, 0},
		{"aesEncrypt128", "LRR", 20, 0, 3543, 599040, 0},
		{"aesEncrypt128", "GTO", 20, 0, 3822, 599040, 0},
		{"aesEncrypt128", "PRO", 20, 0, 3578, 599040, 0},
		{"cenergy", "TL", 20, 0, 3153, 829440, 0},
		{"cenergy", "LRR", 20, 0, 3152, 829440, 0},
		{"cenergy", "GTO", 20, 0, 3078, 829440, 0},
		{"cenergy", "PRO", 20, 0, 3060, 829440, 0},
		{"scalarProdGPU", "TL", 20, 0, 35845, 575488, 8062},
		{"scalarProdGPU", "LRR", 20, 0, 35083, 575488, 8060},
		{"scalarProdGPU", "GTO", 20, 0, 40551, 575488, 8083},
		{"scalarProdGPU", "PRO", 20, 0, 39191, 575488, 8060},
		{"aesEncrypt128", "PRO", 42, 250, 5410, 1257984, 0},
		{"aesEncrypt128", "PRO", 42, 1000, 5140, 1257984, 0},
		{"aesEncrypt128", "PRO", 42, 4000, 5245, 1257984, 0},
		{"scalarProdGPU", "PRO", 42, 0, 67250, 1204992, 0},
		{"scalarProdGPU", "PRO-adaptive", 42, 0, 63509, 1204992, 0},
		{"scalarProdGPU", "PRO-norm", 42, 0, 67250, 1204992, 0},
	}
	for _, g := range golden {
		name := fmt.Sprintf("%s/%s/%dTBs", g.kernel, g.sched, g.tbs)
		w, err := prosim.WorkloadByKernel(g.kernel)
		if err != nil {
			t.Fatal(err)
		}
		w = w.Shrunk(g.tbs)
		var r *prosim.Result
		if g.threshold > 0 {
			name += fmt.Sprintf("/threshold=%d", g.threshold)
			r, err = prosim.RunFactory(prosim.GTX480(), w.Launch,
				prosim.PRO(core.WithThreshold(g.threshold)), prosim.Options{})
		} else {
			r, err = prosim.RunWorkload(w, g.sched, prosim.Options{})
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Cycles != g.cycles {
			t.Errorf("%s: %d cycles, golden %d (timing model changed?)",
				name, r.Cycles, g.cycles)
		}
		if r.ThreadInstrs != g.threadInstrs {
			t.Errorf("%s: %d thread-instrs, golden %d (functional behaviour changed!)",
				name, r.ThreadInstrs, g.threadInstrs)
		}
		if g.l2Accesses != 0 && (r.Mem.L2Accesses != g.l2Accesses || r.Mem.L2Misses != g.l2Accesses) {
			t.Errorf("%s: %d L2 accesses, %d misses, golden %d of each (re-poll accounting changed?)",
				name, r.Mem.L2Accesses, r.Mem.L2Misses, g.l2Accesses)
		}
	}
}
