// Package jobstest sizes simulation jobs for tests of the serving layer
// that need a job to still be running when something else happens.
package jobstest

import (
	"context"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/workloads"
)

var (
	mu   sync.Mutex
	grid = 50          // largest scalarProdGPU grid measured so far
	took time.Duration // how long this process simulated it for
)

// SlowJob returns a scalarProdGPU/PRO job that this process — this host,
// this build; the race detector slows simulation several-fold — was
// measured to simulate for at least floor. The grid grows by the measured
// shortfall (host time is near-linear in it), so a faster simulator grows
// the job instead of shrinking the window callers rely on. Callers still
// wait on observed state; floor only has to cover what they do next.
func SlowJob(floor time.Duration) jobs.Job {
	mu.Lock()
	defer mu.Unlock()
	w, err := workloads.ByKernel("scalarProdGPU")
	if err != nil {
		panic(err)
	}
	l := *w.Launch
	j := jobs.Job{Launch: &l, Kernel: w.Kernel, Scheduler: "PRO"}
	for took < floor {
		if took > 0 {
			grid *= int(floor/took) + 1
		}
		l.GridTBs = grid
		start := time.Now()
		if _, err := (&jobs.Engine{Workers: 1}).RunOne(context.Background(), j); err != nil {
			panic(err)
		}
		took = time.Since(start)
	}
	l.GridTBs = grid
	return j
}
