package memsys

import (
	"testing"

	"repro/internal/config"
	"repro/internal/timing"
)

// BenchmarkL2RetryStorm is the measurement-ladder rung for the refused-read
// path: the GTX480 hierarchy with every SM keeping its 32 L1 MSHRs busy on
// never-reused lines, so 448 reads compete for 192 L2 MSHR entries and the
// surplus re-polls every retryDelay cycles — memory_grid's steady state
// without an engine. One op is one simulated cycle; the extra metrics are
// the host cost per re-poll (whole-cycle time over re-polls, so it carries
// the DRAM and network work of the reads that get through) and how many
// re-polls share one wheel event.
func BenchmarkL2RetryStorm(b *testing.B) {
	cfg := config.GTX480()
	w := timing.NewWheel()
	s := New(cfg, w)
	inflight := make([]int, cfg.NumSMs)
	done := make([]func(int64), cfg.NumSMs)
	for sm := range done {
		sm := sm
		done[sm] = func(int64) { inflight[sm]-- }
	}
	line, cycle := uint64(1<<20), int64(0)
	step := func() {
		cycle++
		w.Advance(cycle)
		s.Tick(cycle)
		for sm := range inflight {
			// Offer only what the L1 MSHRs can track: the bench is about
			// the L2 side, not about refusals at the SM.
			if inflight[sm] < cfg.L1MSHRs {
				if !s.LoadLine(sm, line<<7, done[sm]) {
					b.Fatal("load refused with a free L1 MSHR")
				}
				inflight[sm]++
				line++
			}
		}
	}
	for cycle < 20000 { // fill every file and settle into the steady state
		step()
	}
	repolls, events := s.L2Repolls, s.l2retry.Events
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	repolls, events = s.L2Repolls-repolls, s.l2retry.Events-events
	if repolls < int64(b.N) {
		b.Fatalf("%d re-polls in %d cycles: not a storm", repolls, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(repolls), "ns/repoll")
	b.ReportMetric(float64(repolls)/float64(events), "repolls/event")
	b.ReportMetric(float64(repolls)/float64(b.N), "repolls/cycle")
}
