package gpu_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

func BenchmarkWideGPU(b *testing.B) {
	// The clock loop on wide GPUs (2x and 4x the GTX480's 14 SMs): the
	// per-iteration cost of walking a mostly sleeping SM array.
	w, err := workloads.ByKernel("calculate_temp")
	if err != nil {
		b.Fatal(err)
	}
	w = w.Shrunk(112) // two full residency rounds on the widest GPU
	for _, sms := range []int{28, 56} {
		b.Run(fmt.Sprintf("sms%d", sms), func(b *testing.B) {
			cfg := config.GTX480()
			cfg.NumSMs = sms
			var simCycles int64
			for i := 0; i < b.N; i++ {
				r, err := gpu.Run(cfg, w.Launch, core.New(), gpu.Options{})
				if err != nil {
					b.Fatal(err)
				}
				simCycles += r.Cycles
			}
			b.ReportMetric(float64(simCycles)/b.Elapsed().Seconds(), "sim_cycles/s")
		})
	}
}
