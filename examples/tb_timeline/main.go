// TB timeline: reproduce the paper's Figure 2 phenomenon interactively —
// under LRR the thread blocks of an SM run and finish in lock-step
// batches; under PRO they are deliberately staggered so fresh TBs start
// while old ones still run, keeping the SM's ready-warp pool deep.
//
//	go run ./examples/tb_timeline
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/prosim"
)

func main() {
	w, err := prosim.WorkloadByKernel("aesEncrypt128")
	if err != nil {
		log.Fatal(err)
	}
	// A smaller grid keeps the picture readable: ~3 batches on SM 0.
	w = w.Shrunk(128)

	cfg := prosim.GTX480()
	batch := w.Launch.ResidentTBs(cfg)

	for _, sched := range []string{"LRR", "PRO"} {
		spans, r, err := experiments.Timeline(w, sched, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatTimeline(
			fmt.Sprintf("%s, %d cycles", sched, r.Cycles), 0, spans, r.Cycles))

		// Quantify the batching the paper describes in Sec. II-C: a
		// narrow spread of first-batch finish times means the batch ended
		// as a unit (LRR); a wide spread means execution was staggered
		// and fresh TBs overlapped the old batch (PRO).
		fmt.Printf("-> %d TBs on SM 0; first-batch (%d TBs) finish-time spread: %d cycles\n\n",
			len(spans), batch, firstBatchSpread(spans, batch))
	}
	fmt.Println("Under LRR the first-batch TBs end within a narrow band (a batch boundary);")
	fmt.Println("under PRO the ends spread out, so new TBs overlapped the old batch.")
}

// firstBatchSpread returns max(End)-min(End) over the SM's first batch
// TBs (launch sequence < batch).
func firstBatchSpread(spans []stats.TBSpan, batch int) int64 {
	var lo, hi int64 = 1 << 62, 0
	for _, s := range spans {
		if s.Slot >= batch {
			continue
		}
		if s.End < lo {
			lo = s.End
		}
		if s.End > hi {
			hi = s.End
		}
	}
	if hi == 0 {
		return 0
	}
	return hi - lo
}
