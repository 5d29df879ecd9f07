package flight

import (
	"sort"

	"repro/internal/stats"
)

// Attribution aggregates span latency components over a capture. Means
// are conditional on the component being exercised (an L2 hit
// contributes no DRAM legs); MeanTotal is over all spans.
type Attribution struct {
	Spans int64 `json:"spans"`

	MeanTotal       float64 `json:"mean_total"`
	MeanICNTReq     float64 `json:"mean_icnt_req"`
	MeanL2Service   float64 `json:"mean_l2_service"`
	MeanL2MSHR      float64 `json:"mean_l2_mshr"`
	MeanDRAMQueue   float64 `json:"mean_dram_queue"`
	MeanDRAMService float64 `json:"mean_dram_service"`
	MeanICNTResp    float64 `json:"mean_icnt_resp"`

	L2Hits   int64 `json:"l2_hits"`
	L2Merges int64 `json:"l2_merges"`
	RowHits  int64 `json:"row_hits"`
	// MergedL1 counts L1-side same-line requests that rode on recorded
	// fills' MSHR entries (MSHR-merge wait, no downstream traffic).
	MergedL1 int64 `json:"merged_l1"`
	Retries  int64 `json:"retries"`
}

// WarpStat is one warp's final standing for the least-progressed table.
type WarpStat struct {
	SM       int   `json:"sm"`
	Warp     int   `json:"warp"`
	TB       int   `json:"tb"`
	Progress int64 `json:"progress"`
	Lifetime int64 `json:"lifetime"`
}

// Report is the aggregated view of one capture: the run's stall
// taxonomy extended with memory-side attribution, plus the topN
// least-progressed warps (the paper's progress-divergence lens).
type Report struct {
	Kernel    string               `json:"kernel"`
	Scheduler string               `json:"scheduler"`
	Cycles    int64                `json:"cycles"`
	Stalls    stats.StallBreakdown `json:"stalls"`

	Events        int64 `json:"events"`
	EventsDropped int64 `json:"events_dropped"`
	Spans         int64 `json:"spans"`
	SpansDropped  int64 `json:"spans_dropped"`

	Mem             Attribution `json:"mem"`
	LeastProgressed []WarpStat  `json:"least_progressed"`
}

// Report aggregates the capture.
func (r *Recorder) Report() Report {
	rep := Report{
		Kernel:    r.kernel,
		Scheduler: r.scheduler,
		Cycles:    r.cycles,
		Stalls:    r.stalls,
	}
	rep.Events, rep.EventsDropped = r.eventCounts()
	rep.Spans, rep.SpansDropped = r.mem.count, r.mem.overwritten

	var sum SpanComponents
	var nReq, nHit, nMshr, nQ, nSvc, nResp int64
	for _, sp := range r.mem.spans() {
		c := sp.Components()
		sum.Total += c.Total
		if c.ICNTReq > 0 {
			sum.ICNTReq += c.ICNTReq
			nReq++
		}
		if c.L2Service > 0 {
			sum.L2Service += c.L2Service
			nHit++
		}
		if c.L2MSHR > 0 {
			sum.L2MSHR += c.L2MSHR
			nMshr++
		}
		if c.DRAMQueue > 0 {
			sum.DRAMQueue += c.DRAMQueue
			nQ++
		}
		if c.DRAMService > 0 {
			sum.DRAMService += c.DRAMService
			nSvc++
		}
		if c.ICNTResp > 0 {
			sum.ICNTResp += c.ICNTResp
			nResp++
		}
		if sp.L2Hit {
			rep.Mem.L2Hits++
		}
		if sp.L2Merged {
			rep.Mem.L2Merges++
		}
		if sp.RowHit {
			rep.Mem.RowHits++
		}
		rep.Mem.MergedL1 += int64(sp.Merged)
		rep.Mem.Retries += int64(sp.Retries)
	}
	n := int64(len(r.mem.spans()))
	rep.Mem.Spans = n
	rep.Mem.MeanTotal = mean(sum.Total, n)
	rep.Mem.MeanICNTReq = mean(sum.ICNTReq, nReq)
	rep.Mem.MeanL2Service = mean(sum.L2Service, nHit)
	rep.Mem.MeanL2MSHR = mean(sum.L2MSHR, nMshr)
	rep.Mem.MeanDRAMQueue = mean(sum.DRAMQueue, nQ)
	rep.Mem.MeanDRAMService = mean(sum.DRAMService, nSvc)
	rep.Mem.MeanICNTResp = mean(sum.ICNTResp, nResp)

	rep.LeastProgressed = r.leastProgressed()
	return rep
}

func mean(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// leastProgressed ranks warps by final progress from their EvWarpFinish
// events, ascending, ties broken by SM then warp slot for determinism.
func (r *Recorder) leastProgressed() []WarpStat {
	var ws []WarpStat
	for _, t := range r.sms {
		for _, e := range t.events() {
			if e.Kind != EvWarpFinish {
				continue
			}
			ws = append(ws, WarpStat{
				SM: int(e.SM), Warp: int(e.Warp), TB: int(e.TB),
				Progress: e.A, Lifetime: e.Cycle - e.B,
			})
		}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Progress != ws[j].Progress {
			return ws[i].Progress < ws[j].Progress
		}
		if ws[i].SM != ws[j].SM {
			return ws[i].SM < ws[j].SM
		}
		return ws[i].Warp < ws[j].Warp
	})
	if len(ws) > topN {
		ws = ws[:topN]
	}
	return ws
}
