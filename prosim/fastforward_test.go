package prosim_test

// TestFastForwardDifferential is the dedicated gate for the global
// fast-forward path (`make fastforwardtest`). Where TestFastPathEquivalence
// isolates each switch on a small scheduler set, this test sweeps every
// registered scheduler — the fast-forward horizon computation must hold
// for policies with timed behaviour (PRO-adaptive's phase timer, TL's
// level rotation) just as for purely event-driven ones.

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/schedreg"
	"repro/prosim"
)

func TestFastForwardDifferential(t *testing.T) {
	// Two memory-divergent kernels with different TB churn profiles keep
	// the sweep affordable while exercising both the idle-memsys jump
	// (aes compute bursts) and the drain/retire boundary (scalarProd);
	// the memory-bound rows add the jumps that only exist because SMs now
	// sleep through Pipeline stalls, clamped by dense sample boundaries.
	rows := append([]diffRow{
		{kernel: "aesEncrypt128", maxTBs: 8, opts: []prosim.Options{{}}},
		{kernel: "scalarProdGPU", maxTBs: 8, opts: []prosim.Options{{}}},
	}, memoryBoundRows...)
	for _, row := range rows {
		k, opts := row.kernel, row.opts[0]
		w, err := prosim.WorkloadByKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		w = w.Shrunk(row.maxTBs)
		if row.maxTBs != 8 {
			// The 8-TB rows keep their historical subtest names;
			// scalarProdGPU runs at both sizes.
			k = fmt.Sprintf("%s@%d", k, row.maxTBs)
		}
		for _, s := range schedreg.All() {
			s := s
			t.Run(k+"/"+s, func(t *testing.T) {
				t.Parallel()
				var ref string
				for _, disable := range []bool{true, false} {
					cfg := prosim.GTX480()
					cfg.DisableFastForward = disable
					r, err := prosim.Run(cfg, w.Launch, s, opts)
					if err != nil {
						t.Fatal(err)
					}
					data, err := json.Marshal(r)
					if err != nil {
						t.Fatal(err)
					}
					if disable {
						ref = string(data)
					} else if string(data) != ref {
						t.Errorf("fast-forward changed the result for %s/%s", k, s)
					}
				}
			})
		}
	}
}
