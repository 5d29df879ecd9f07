package jobs

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/workloads"
)

func TestGridAssignsCost(t *testing.T) {
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	js := Grid([]*workloads.Workload{w}, []string{"LRR", "PRO"}, 6, gpu.Options{})
	for i, j := range js {
		want := int64(j.Launch.GridTBs) * int64(j.Launch.BlockThreads)
		if j.Cost != want || j.Cost == 0 {
			t.Fatalf("job %d: Cost = %d, want %d", i, j.Cost, want)
		}
	}
}

func TestCostDoesNotAffectResults(t *testing.T) {
	js := testBatch(t) // Grid sets real costs
	flat := make([]Job, len(js))
	copy(flat, js)
	for i := range flat {
		flat[i].Cost = 0 // zero cost keeps plain batch order
	}
	costed := mustRun(t, &Engine{Workers: 3}, js)
	plain := mustRun(t, &Engine{Workers: 3}, flat)
	for i := range js {
		if string(costed[i]) != string(plain[i]) {
			t.Fatalf("job %d: cost-ordered dispatch changed the result", i)
		}
	}
}
