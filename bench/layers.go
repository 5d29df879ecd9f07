package main

import (
	"bufio"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/flight"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/schedreg"
	"repro/internal/stats"
)

// recordSimLayers derives the simulator-side per-layer metrics of one
// traced pass from what the harness could see from outside: the results
// (exact), the decorator's Order timings and job windows (spans), and the
// heartbeats; runSpan is the Engine.Run span the jobs ran under. owned marks the serial jobs.Engine workloads, where the
// harness holds the process-wide heartbeat listener and jobs run one at a
// time; the loop metrics and the engine's overhead exist only there.
func (h *harness) recordSimLayers(col *collector, rs []*stats.KernelResult, runSpan int, wall time.Duration, owned bool) {
	var total stats.KernelResult
	for _, r := range rs {
		total.Cycles += r.Cycles
		total.WarpInstrs += r.WarpInstrs
		total.Stalls.Add(r.Stalls)
		total.Mem.Add(r.Mem)
	}
	h.sample("gpu.sim_cycles", float64(total.Cycles))
	h.sample("engine.warp_instrs", float64(total.WarpInstrs))
	h.sample("engine.ipc", total.IPC())
	h.sample("engine.stall_idle", float64(total.Stalls.Idle))
	h.sample("engine.stall_scoreboard", float64(total.Stalls.Scoreboard))
	h.sample("engine.stall_pipeline", float64(total.Stalls.Pipeline))
	h.sample("engine.issue_slot_util", float64(total.Stalls.Issued)/float64(total.Stalls.Slots()))
	h.sample("cache.l1_accesses", float64(total.Mem.L1Accesses))
	h.sample("cache.l1_miss_rate", total.Mem.L1MissRate())
	h.sample("cache.l2_accesses", float64(total.Mem.L2Accesses))
	h.sample("cache.l2_miss_rate", total.Mem.L2MissRate())
	h.sample("dram.reqs", float64(total.Mem.DRAMReqs))
	h.sample("dram.row_hit_rate", stats.Ratio(total.Mem.DRAMRowHits, total.Mem.DRAMReqs))
	// Loads enter through the L1; stores, atomics and MSHR-refused retries
	// show as L2 accesses.
	h.sample("memsys.reqs_per_kcycle", 1e3*float64(total.Mem.L1Accesses+total.Mem.L2Accesses)/float64(total.Cycles))

	var windows time.Duration
	var calls [2]int64 // sched (TL, LRR, GTO), core (PRO)
	var busy [2]time.Duration
	for _, jt := range col.jobs {
		w := jt.window()
		windows += w
		c, b := jt.order()
		pkg := 0
		if jt.scheduler == "PRO" {
			pkg = 1
		}
		calls[pkg] += c
		busy[pkg] += b
		job := h.tr.add("job "+jt.label, "jobs", runSpan, jt.start, jt.end, nil)
		h.tr.add("Scheduler.Order (aggregated)", "sched", job, jt.start, jt.start.Add(b),
			map[string]any{"job": jt.label, "calls": c})
	}
	if windows <= 0 {
		return
	}
	for pkg, name := range []string{"sched", "core"} {
		h.sample(name+".order_calls", float64(calls[pkg]))
		if calls[pkg] > 0 {
			h.sample(name+".order_ns_per_call", float64(busy[pkg].Nanoseconds())/float64(calls[pkg]))
		}
		h.sample(name+".order_busy_share", busy[pkg].Seconds()/windows.Seconds())
	}
	h.sample("gpu.host_ns_per_sim_cycle", float64(windows.Nanoseconds())/float64(total.Cycles))
	h.sample("gpu.host_ns_per_warp_instr", float64(windows.Nanoseconds())/float64(total.WarpInstrs))

	// Where a simulated cycle's host time goes. Only share.sched is
	// measured. The memory-side and wheel shares are estimates: exact
	// event counts of the pass times the cost the layer drivers measured
	// for one such event (README.md spells the sums out); the engine gets
	// the remainder.
	mem := total.Mem
	hits := float64(mem.L1Accesses - mem.L1Misses)
	memNS := hits*h.driver("memsys.load_hit_ns") +
		float64(mem.L1Misses)*h.driver("cache.mshr_add_fill_ns") +
		float64(mem.L2Accesses)*(h.driver("icnt.send_ns")+h.driver("cache.access_miss_fill_ns")+h.driver("cache.mshr_add_fill_ns")) +
		float64(mem.DRAMReqs)*(h.driver("dram.enqueue_ns")+h.driver("dram.tick_ns.q32")+h.driver("icnt.send_ns"))
	events := float64(total.WarpInstrs)/float64(config.GTX480().IBufferEntries) +
		float64(mem.L1Accesses) + 2*float64(mem.L2Accesses) + float64(mem.DRAMReqs)
	shareSched := (busy[0] + busy[1]).Seconds() / windows.Seconds()
	shareMem := memNS / float64(windows.Nanoseconds())
	shareTiming := events * h.driver("timing.schedule_advance_ns_per_event") / float64(windows.Nanoseconds())
	h.sample("share.sched", shareSched)
	h.sample("share.memsys_est", shareMem)
	h.sample("share.timing_est", shareTiming)
	h.sample("share.engine_est", 1-shareSched-shareMem-shareTiming)

	if !owned {
		return
	}
	// One job at a time here, so what Engine.Run spends outside the job
	// windows is the cost of getting a job to its first SM and its result
	// back: dispatch, labels, validation, memory-system construction.
	h.sample("jobs.run_overhead_ms", (wall-windows).Seconds()*1e3)
	hb := col.hb
	if hb.iters == 0 {
		return
	}
	h.sample("gpu.loop_iters", float64(hb.iters))
	h.sample("gpu.ff_skip_share", 1-float64(hb.iters)/float64(total.Cycles))
	h.sample("gpu.sm_workers", float64(hb.smWorkers))
	if decisions := hb.parTicks + hb.serialTicks; decisions > 0 {
		h.sample("gpu.par_tick_share", float64(hb.parTicks)/float64(decisions))
	}
	if hb.parTicks > 0 {
		h.sample("gpu.tick_ns_per_cycle", float64(hb.tickNS)/float64(hb.parTicks))
		h.sample("gpu.commit_ns_per_cycle", float64(hb.commitNS)/float64(hb.parTicks))
	}
	if hb.laneDrains > 0 {
		h.sample("gpu.lane_ops_per_drain", float64(hb.laneOps)/float64(hb.laneDrains))
	}
}

// driver returns the value a layer driver measured earlier in this run.
func (h *harness) driver(name string) float64 {
	return median(h.layer[name])
}

// flightExtras runs the PRO job that used the memory system most under a
// flight recorder, directly through gpu.RunContext, and reports the mean
// simulated latency of each leg of a memory request.
func (h *harness) flightExtras(js []jobs.Job, rs []*stats.KernelResult) error {
	pick := -1
	for i, j := range js {
		if j.Scheduler == "PRO" && (pick < 0 || rs[i].Mem.L2Accesses > rs[pick].Mem.L2Accesses) {
			pick = i
		}
	}
	if pick < 0 {
		return nil
	}
	j := js[pick]
	factory, err := schedreg.New(j.Scheduler)
	if err != nil {
		return err
	}
	cfg := j.Config
	if cfg == nil {
		cfg = config.GTX480()
	}
	rec := flight.New(flight.Options{})
	opts := j.Options
	opts.Flight = rec
	var res *stats.KernelResult
	h.tr.timed("gpu.RunContext "+j.Label()+"/PRO (flight)", "main", 0, func() {
		res, err = gpu.RunContext(context.Background(), cfg, j.Launch, factory, opts)
	})
	if err != nil {
		return err
	}
	if res.Cycles != rs[pick].Cycles {
		h.fail(fmt.Sprintf("%s/PRO: %d cycles under the flight recorder, %d without", j.Label(), res.Cycles, rs[pick].Cycles))
	}
	mem := rec.Report().Mem
	h.sample("memsys.lat.icnt_req", mem.MeanICNTReq)
	h.sample("memsys.lat.l2_service", mem.MeanL2Service)
	h.sample("memsys.lat.l2_mshr", mem.MeanL2MSHR)
	h.sample("memsys.lat.dram_queue", mem.MeanDRAMQueue)
	h.sample("memsys.lat.dram_service", mem.MeanDRAMService)
	h.sample("memsys.lat.icnt_resp", mem.MeanICNTResp)
	return nil
}

// nonTestGoLines counts the lines of non-test Go source under the
// product directories of the repository at root.
func nonTestGoLines(root string) (int, error) {
	lines := 0
	for _, dir := range []string{"cmd", "internal", "prosim"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				lines++
			}
			return sc.Err()
		})
		if err != nil {
			return 0, err
		}
	}
	return lines, nil
}
