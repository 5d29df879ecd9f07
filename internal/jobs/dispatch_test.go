package jobs

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestDispatchRequeue: a job a lane hands back (stopping, or pausing far
// longer than the batch takes) goes to a lane that runs it, and the batch
// completes without waiting out the pause; when every lane stops, the
// batch fails naming the last cause instead of hanging.
func TestDispatchRequeue(t *testing.T) {
	type lane = func(context.Context, int) (*stats.KernelResult, bool, error)
	js := []Job{{Kernel: "a"}, {Kernel: "b"}, {Kernel: "c"}}
	cause := errors.New("slot gone")
	// The running lane waits for the first refusal, so the refusing lane
	// always gets a job to hand back.
	var refused chan struct{}
	var once *sync.Once
	refuse := func(rq Requeue) lane {
		return func(context.Context, int) (*stats.KernelResult, bool, error) {
			once.Do(func() { close(refused) })
			return nil, false, &rq
		}
	}
	runs := func(ctx context.Context, i int) (*stats.KernelResult, bool, error) {
		<-refused
		return &stats.KernelResult{Kernel: js[i].Kernel}, false, nil
	}
	for _, tc := range []struct {
		name           string
		refuser, other lane
		wantErr        bool
	}{
		{"stop", refuse(Requeue{Stop: true, Err: cause}), runs, false},
		{"pause", refuse(Requeue{Pause: time.Hour, Err: cause}), runs, false},
		{"all stop", refuse(Requeue{Stop: true, Err: cause}), refuse(Requeue{Stop: true, Err: cause}), true},
	} {
		refused, once = make(chan struct{}), new(sync.Once)
		t.Run(tc.name, func(t *testing.T) {
			results := make([]*stats.KernelResult, len(js))
			err := Dispatch(context.Background(), js, []int{0, 1, 2}, results, []lane{tc.refuser, tc.other}, nil)
			if tc.wantErr {
				if !errors.Is(err, cause) || !strings.Contains(err.Error(), "every lane stopped") {
					t.Fatalf("all lanes stopped: err = %v", err)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range results {
					if r == nil || r.Kernel != js[i].Kernel {
						t.Fatalf("result %d = %+v, want kernel %s", i, r, js[i].Kernel)
					}
				}
			}
		})
	}
}

// TestRequeueGoesToTheFront: a job handed back is the next one taken, so
// a lone lane that refuses the first job once still completes the batch
// in queue order.
func TestRequeueGoesToTheFront(t *testing.T) {
	js := []Job{{Kernel: "a"}, {Kernel: "b"}, {Kernel: "c"}}
	refused := false
	lane := func(_ context.Context, i int) (*stats.KernelResult, bool, error) {
		if !refused {
			refused = true
			return nil, false, &Requeue{Err: errors.New("busy")}
		}
		return &stats.KernelResult{}, false, nil
	}
	var order []string
	err := Dispatch(context.Background(), js, []int{0, 1, 2}, make([]*stats.KernelResult, len(js)),
		[]func(context.Context, int) (*stats.KernelResult, bool, error){lane},
		func(ev Event) { order = append(order, ev.Kernel) })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c"}; !slices.Equal(order, want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
}

// TestGaugesReturnToStart: a batch that fails on its first job and a
// batch whose context is cancelled mid-way leave jobs_workers_busy where
// they found it.
func TestGaugesReturnToStart(t *testing.T) {
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	busy := mBusy.Value()
	check := func(what string) {
		t.Helper()
		if b := mBusy.Value(); b != busy {
			t.Fatalf("%s: jobs_workers_busy %d, want %d", what, b, busy)
		}
	}

	// Equal costs keep batch order, so the unknown scheduler goes first.
	failing := Grid([]*workloads.Workload{w}, []string{"BOGUS", "LRR", "GTO", "PRO"}, 8, gpu.Options{})
	if _, err := (&Engine{Workers: 2}).Run(context.Background(), failing); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	check("failed batch")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batch := Grid([]*workloads.Workload{w}, []string{"LRR", "GTO", "TL", "PRO", "LRR", "GTO"}, 8, gpu.Options{})
	e := &Engine{Workers: 2, OnProgress: func(Event) { cancel() }}
	if _, err := e.Run(ctx, batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v", err)
	}
	check("cancelled batch")
}
