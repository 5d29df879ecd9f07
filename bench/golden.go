package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/jobs"
	"repro/internal/stats"
)

// goldenJSON pins, for every job of every workload at seed 1, the four
// counts a correct simulation must reproduce. `-update-golden` rewrites
// the file after a deliberate model change.
//
//go:embed golden.json
var goldenJSON []byte

// goldenPin is one pinned job. Key is the job's result-cache identity
// when the pin was taken: a job whose key has since changed (cache schema
// bump, config or launch change) is reported rekeyed and skipped, the
// cmd/benchdiff convention, instead of failing.
type goldenPin struct {
	Key          string `json:"key"`
	Cycles       int64  `json:"cycles"`
	WarpInstrs   int64  `json:"warp_instrs"`
	ThreadInstrs int64  `json:"thread_instrs"`
	TBCount      int    `json:"tb_count"`
}

// goldenFile maps workload → "kernel/scheduler" → pin.
type goldenFile map[string]map[string]goldenPin

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func pinOf(key string, r *stats.KernelResult) goldenPin {
	return goldenPin{Key: key, Cycles: r.Cycles, WarpInstrs: r.WarpInstrs, ThreadInstrs: r.ThreadInstrs, TBCount: r.TBCount}
}

// checkPin compares one result with its pin. rekeyed means the pin does
// not apply (absent, or taken under another key).
func checkPin(pins map[string]goldenPin, label, key string, r *stats.KernelResult) (rekeyed bool, failure string) {
	pin, ok := pins[label]
	if !ok || pin.Key != key {
		return true, ""
	}
	if got := pinOf(key, r); got != pin {
		return false, fmt.Sprintf("%s: golden mismatch under unchanged key: got cycles=%d warp=%d thread=%d tbs=%d, pinned cycles=%d warp=%d thread=%d tbs=%d",
			label, got.Cycles, got.WarpInstrs, got.ThreadInstrs, got.TBCount,
			pin.Cycles, pin.WarpInstrs, pin.ThreadInstrs, pin.TBCount)
	}
	return false, ""
}

func jobLabel(j *jobs.Job) string { return j.Label() + "/" + j.Scheduler }

// jobKeys returns the result-cache key of every job: the identity the
// golden pins are filed under. It is part of every pass's set-up.
func jobKeys(js []jobs.Job) ([]string, error) {
	keys := make([]string, len(js))
	for i := range js {
		k, ok, err := jobs.Key(&js[i])
		if err != nil || !ok {
			return nil, fmt.Errorf("%s: no cache key: %v", jobLabel(&js[i]), err)
		}
		keys[i] = k
	}
	return keys, nil
}

// checkResults is the correctness gate every pass goes through. At seed 1
// the results must match golden.json; at any other seed the inputs must
// differ from the pinned ones (the seed really reached the launches); at
// every seed the four schedulers must have executed the same
// instructions and thread blocks per kernel (a policy may change when
// instructions issue, never which). It returns one line per failed job.
func (h *harness) checkResults(golden goldenFile, out *passOut) []string {
	var failures []string
	js, rs := out.jobs, out.results
	if len(js) != len(rs) || len(js) != len(out.keys) {
		return []string{fmt.Sprintf("%d results and %d keys for %d jobs", len(rs), len(out.keys), len(js))}
	}
	pins := golden[h.wl.name]
	if h.pinning {
		pins = nil // the old pins are what is being replaced
	}
	rekeyed := 0
	type work struct {
		warp, thread int64
		tbs          int
		label        string
	}
	first := map[string]work{}
	for i := range js {
		j, r := &js[i], rs[i]
		label := jobLabel(j)
		if r == nil {
			failures = append(failures, label+": no result")
			continue
		}
		if h.opts.seed == 1 {
			rk, failure := checkPin(pins, label, out.keys[i], r)
			if rk {
				rekeyed++
			}
			if failure != "" {
				failures = append(failures, failure)
			}
		} else if pin, ok := pins[label]; ok && pin.Key == out.keys[i] {
			failures = append(failures, fmt.Sprintf("%s: seed %d produced the seed-1 input", label, h.opts.seed))
		}
		w := work{r.WarpInstrs, r.ThreadInstrs, r.TBCount, label}
		if ref, ok := first[j.Label()]; !ok {
			first[j.Label()] = w
		} else if ref.warp != w.warp || ref.thread != w.thread || ref.tbs != w.tbs {
			failures = append(failures, fmt.Sprintf("%s executed warp=%d thread=%d tbs=%d but %s executed warp=%d thread=%d tbs=%d",
				label, w.warp, w.thread, w.tbs, ref.label, ref.warp, ref.thread, ref.tbs))
		}
	}
	h.res.Rekeyed = rekeyed
	return failures
}

// updateGolden runs one seed-1 pass of every workload and pins what it
// produced.
func updateGolden(path string) error {
	g := goldenFile{}
	for _, w := range workloads {
		h := newHarness(w, runOpts{seed: 1})
		h.pinning = true
		if err := h.withTmp(func() error {
			out, err := h.pass(0)
			if err != nil {
				return err
			}
			if len(out.failures) > 0 {
				return fmt.Errorf("%s: %s", w.name, out.failures[0])
			}
			pins := map[string]goldenPin{}
			for i := range out.jobs {
				pins[jobLabel(&out.jobs[i])] = pinOf(out.keys[i], out.results[i])
			}
			g[w.name] = pins
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("pinned %d jobs of %s\n", len(g[w.name]), w.name)
	}
	// encoding/json sorts map keys, so the file is stable.
	return writeJSON(path, g)
}
