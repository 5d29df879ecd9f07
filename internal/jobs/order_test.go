package jobs_test

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/jobs"
	"repro/internal/workloads"
)

// TestExpensiveJobsDispatchFirst pins each runner's dispatch order over
// the shared loop. Three jobs are submitted in ascending cost order on
// one lane, so completion order equals dispatch order: the local engine
// runs them costliest-first (cutting a batch's tail), the coordinator in
// batch order (costliest-first would raise a cold sweep's median
// completion time). Either way the results stay at their input
// positions.
func TestExpensiveJobsDispatchFirst(t *testing.T) {
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tbs int, sched string) jobs.Job {
		run := w.Shrunk(tbs)
		return jobs.Job{
			Launch:    run.Launch,
			Kernel:    run.Kernel,
			Scheduler: sched,
			Cost:      int64(run.Launch.GridTBs) * int64(run.Launch.BlockThreads),
		}
	}
	js := []jobs.Job{mk(2, "LRR"), mk(6, "GTO"), mk(4, "PRO")}

	for _, tc := range []struct {
		name   string
		runner func(t *testing.T, progress func(jobs.Event)) jobs.Runner
		want   []string
	}{
		{"engine", func(t *testing.T, progress func(jobs.Event)) jobs.Runner {
			return &jobs.Engine{Workers: 1, OnProgress: progress}
		}, []string{"GTO", "PRO", "LRR"}}, // descending cost
		{"coordinator", func(t *testing.T, progress func(jobs.Event)) jobs.Runner {
			d, err := daemon.New(daemon.Config{Workers: 1}) // one slot: one lane
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(d.Handler())
			t.Cleanup(srv.Close)
			coord, err := cluster.New(cluster.Config{Workers: []string{srv.URL}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(coord.Close)
			coord.OnProgress = progress
			return coord
		}, []string{"LRR", "GTO", "PRO"}}, // batch order
	} {
		t.Run(tc.name, func(t *testing.T) {
			var order []string
			rs, err := tc.runner(t, func(ev jobs.Event) { order = append(order, ev.Scheduler) }).
				Run(context.Background(), js)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(order, tc.want) {
				t.Fatalf("dispatch order %v, want %v", order, tc.want)
			}
			for i, j := range js {
				if rs[i].Scheduler != j.Scheduler {
					t.Fatalf("result %d is %s, want %s: dispatch order leaked into result order",
						i, rs[i].Scheduler, j.Scheduler)
				}
			}
		})
	}
}
