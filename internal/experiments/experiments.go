// Package experiments reproduces the paper's evaluation artifacts: the
// stall-breakdown study (Fig. 1), the thread-block timelines (Fig. 2),
// the per-kernel speedups (Fig. 4), the stall-improvement ratios (Fig. 5
// and Table III) and the TB priority-order trace (Table IV). The cmd/
// tools and the repository's bench harness are thin wrappers around this
// package.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/prosim"
)

// BaselineOrder is the comparison order used throughout the paper.
var BaselineOrder = []string{"TL", "LRR", "GTO"}

// Suite holds the results of running kernels × schedulers.
type Suite struct {
	// Kernels maps kernel name → scheduler name → result, in no
	// particular order; Order preserves workload order.
	Kernels map[string]map[string]*stats.KernelResult
	Order   []*workloads.Workload
}

// RunSuite simulates every workload in ws under every named scheduler on
// the GTX480 configuration through a job runner: a local engine (which
// controls parallelism, caching and progress reporting) or a daemon
// client. maxTBs > 0 shrinks grids (for quick runs and benches); 0 runs
// the full scaled grids. run may be nil — a default engine (one worker
// per core, no cache) is used. The simulator is deterministic and
// results are assembled in job order, so the Suite contents do not
// depend on the worker count or on where the jobs execute.
func RunSuite(ws []*workloads.Workload, scheds []string, maxTBs int, run jobs.Runner) (*Suite, error) {
	run = runnerOrDefault(run)
	batch := SuiteJobs(ws, scheds, maxTBs)
	results, err := run.Run(context.Background(), batch)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	s := &Suite{Kernels: make(map[string]map[string]*stats.KernelResult), Order: ws}
	for i, w := range ws {
		byName := make(map[string]*stats.KernelResult, len(scheds))
		for k, sched := range scheds {
			byName[sched] = results[i*len(scheds)+k]
		}
		s.Kernels[w.Kernel] = byName
	}
	return s, nil
}

// result returns the stored result or panics — indices are internal.
func (s *Suite) result(kernel, sched string) *stats.KernelResult {
	r, ok := s.Kernels[kernel][sched]
	if !ok {
		panic("experiments: missing result for " + kernel + "/" + sched)
	}
	return r
}

// ---- Fig. 4: per-kernel speedups of PRO over the baselines ----

// SpeedupRow is one bar group of Fig. 4.
type SpeedupRow struct {
	Kernel string
	// Over maps baseline name → baselineCycles/proCycles.
	Over map[string]float64
}

// Fig4 is the paper's Figure 4.
type Fig4 struct {
	Rows []SpeedupRow
	// Geomean maps baseline → geometric-mean speedup (paper: TL 1.13,
	// LRR 1.12, GTO 1.02).
	Geomean map[string]float64
}

// ComputeFig4 derives Figure 4 from a suite that ran PRO and the
// baselines.
func (s *Suite) ComputeFig4() *Fig4 {
	f := &Fig4{Geomean: map[string]float64{}}
	perBase := map[string][]float64{}
	for _, w := range s.Order {
		pro := s.result(w.Kernel, "PRO")
		row := SpeedupRow{Kernel: w.Kernel, Over: map[string]float64{}}
		for _, b := range BaselineOrder {
			sp := pro.Speedup(s.result(w.Kernel, b))
			row.Over[b] = sp
			perBase[b] = append(perBase[b], sp)
		}
		f.Rows = append(f.Rows, row)
	}
	for _, b := range BaselineOrder {
		f.Geomean[b] = stats.Geomean(perBase[b])
	}
	return f
}

// ---- Application aggregation (Tables III / Fig. 1 / Fig. 5) ----

// AppStalls aggregates the stall breakdown of one application (the sum
// over its kernels, as the paper reports "per application, not per
// kernel").
func (s *Suite) AppStalls(app, sched string) stats.StallBreakdown {
	var b stats.StallBreakdown
	for _, w := range s.Order {
		if w.App == app {
			b.Add(s.result(w.Kernel, sched).Stalls)
		}
	}
	return b
}

// Apps returns the application names present in the suite, in Table III
// order.
func (s *Suite) Apps() []string {
	var out []string
	seen := map[string]bool{}
	for _, app := range workloads.Apps() {
		for _, w := range s.Order {
			if w.App == app && !seen[app] {
				seen[app] = true
				out = append(out, app)
			}
		}
	}
	return out
}

// BreakdownRow is one bar of Fig. 1: the share of each stall type within
// an application's total stalls under one scheduler.
type BreakdownRow struct {
	App                        string
	SBFrac, IdleFrac, PipeFrac float64
}

// ComputeFig1 derives the Fig. 1 stall composition for one scheduler.
func (s *Suite) ComputeFig1(sched string) []BreakdownRow {
	var rows []BreakdownRow
	for _, app := range s.Apps() {
		b := s.AppStalls(app, sched)
		total := float64(b.Total())
		if total == 0 {
			total = 1
		}
		rows = append(rows, BreakdownRow{
			App:      app,
			SBFrac:   float64(b.Scoreboard) / total,
			IdleFrac: float64(b.Idle) / total,
			PipeFrac: float64(b.Pipeline) / total,
		})
	}
	return rows
}

// StallRatios is one Table III cell group: baseline stalls over PRO
// stalls (greater than 1 means PRO has fewer stalls).
type StallRatios struct {
	Pipe, Idle, SB, Total float64
}

// Table3Row is one application row of Table III.
type Table3Row struct {
	App string
	// PRO holds PRO's absolute stall cycles (the paper's first column
	// group: Pipe, Idle, SB).
	PRO stats.StallBreakdown
	// Over maps baseline → ratios.
	Over map[string]StallRatios
}

// Table3 is the paper's Table III (and, through the Total column, the
// bars of Fig. 5).
type Table3 struct {
	Rows []Table3Row
	// Geomean maps baseline → geomean ratios (paper Totals: TL 1.32,
	// LRR 1.19, GTO 1.04).
	Geomean map[string]StallRatios
}

// ComputeTable3 derives Table III.
func (s *Suite) ComputeTable3() *Table3 {
	t := &Table3{Geomean: map[string]StallRatios{}}
	acc := map[string]*[4][]float64{}
	for _, b := range BaselineOrder {
		acc[b] = &[4][]float64{}
	}
	for _, app := range s.Apps() {
		pro := s.AppStalls(app, "PRO")
		row := Table3Row{App: app, PRO: pro, Over: map[string]StallRatios{}}
		for _, b := range BaselineOrder {
			base := s.AppStalls(app, b)
			r := StallRatios{
				Pipe:  stats.Ratio(base.Pipeline, pro.Pipeline),
				Idle:  stats.Ratio(base.Idle, pro.Idle),
				SB:    stats.Ratio(base.Scoreboard, pro.Scoreboard),
				Total: stats.Ratio(base.Total(), pro.Total()),
			}
			row.Over[b] = r
			acc[b][0] = append(acc[b][0], r.Pipe)
			acc[b][1] = append(acc[b][1], r.Idle)
			acc[b][2] = append(acc[b][2], r.SB)
			acc[b][3] = append(acc[b][3], r.Total)
		}
		t.Rows = append(t.Rows, row)
	}
	for _, b := range BaselineOrder {
		t.Geomean[b] = StallRatios{
			Pipe:  stats.Geomean(acc[b][0]),
			Idle:  stats.Geomean(acc[b][1]),
			SB:    stats.Geomean(acc[b][2]),
			Total: stats.Geomean(acc[b][3]),
		}
	}
	return t
}

// ---- Batch builders ----
//
// The exact jobs each experiment runs.

// SuiteJobs is the batch RunSuite executes: every workload under every
// named scheduler, scheduler-major within each workload.
func SuiteJobs(ws []*workloads.Workload, scheds []string, maxTBs int) []jobs.Job {
	return jobs.Grid(ws, scheds, maxTBs, gpu.Options{})
}

// timelineJob is the single job Timeline executes for one workload and
// scheduler.
func timelineJob(w *workloads.Workload, sched string) jobs.Job {
	return jobs.Job{
		Launch:    w.Launch,
		Kernel:    w.Kernel,
		Scheduler: sched,
		Options:   prosim.Options{Timeline: true},
	}
}

// orderTraceJob is the single job OrderTrace executes (threshold <= 0
// means PRO's default re-sort threshold).
func orderTraceJob(w *workloads.Workload, threshold int64) jobs.Job {
	spec := "PRO+ordertrace+threshold=default"
	if threshold > 0 {
		spec = fmt.Sprintf("PRO+ordertrace+threshold=%d", threshold)
	}
	return jobs.Job{Launch: w.Launch, Kernel: w.Kernel, Scheduler: spec}
}

// ---- Fig. 2: thread-block timelines ----

// Timeline runs one workload under one scheduler with span recording and
// returns the spans for a single SM (the paper plots SM 0). run may be
// nil (direct run, no cache).
func Timeline(w *workloads.Workload, sched string, smID int, run jobs.Runner) ([]stats.TBSpan, *stats.KernelResult, error) {
	rs, err := runnerOrDefault(run).Run(context.Background(), []jobs.Job{timelineJob(w, sched)})
	if err != nil {
		return nil, nil, err
	}
	r := rs[0]
	var spans []stats.TBSpan
	for _, sp := range r.Timeline {
		if sp.SM == smID {
			spans = append(spans, sp)
		}
	}
	return spans, r, nil
}

// ---- Table IV: PRO's sorted TB order over time ----

// OrderTrace runs w under PRO with order tracing and returns the SM-0
// samples. run may be nil (direct run, no cache).
func OrderTrace(w *workloads.Workload, threshold int64, run jobs.Runner) ([]stats.OrderSample, error) {
	rs, err := runnerOrDefault(run).Run(context.Background(), []jobs.Job{orderTraceJob(w, threshold)})
	if err != nil {
		return nil, err
	}
	return rs[0].OrderTrace, nil
}

// runnerOrDefault substitutes a default local engine for a nil runner
// (including a typed-nil *jobs.Engine hiding inside the interface).
func runnerOrDefault(run jobs.Runner) jobs.Runner {
	if run == nil {
		return &jobs.Engine{}
	}
	if e, ok := run.(*jobs.Engine); ok && e == nil {
		return &jobs.Engine{}
	}
	return run
}
