package flight

import (
	"sort"

	"repro/internal/stats"
)

// Attribution aggregates span latency components over every span a run
// committed. Means are conditional on the component being exercised (an
// L2 hit contributes no DRAM legs); MeanTotal is over all spans.
type Attribution struct {
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

// Report aggregates the whole run: the totals the traces kept for every
// span and every warp, whatever the rings still hold, and the rings'
// counters for the header.
func (r *Recorder) Report() Report {
	rep := Report{
		Kernel:    r.kernel,
		Scheduler: r.scheduler,
		Cycles:    r.cycles,
		Stalls:    r.stalls,
	}
	rep.Events, rep.EventsDropped = r.eventCounts()
	m := r.mem
	rep.Spans, rep.SpansDropped = m.count, m.overwritten

	rep.Mem = m.flags
	rep.Mem.MeanTotal = mean(m.sum.Total, m.count)
	rep.Mem.MeanICNTReq = mean(m.sum.ICNTReq, m.exercised.ICNTReq)
	rep.Mem.MeanL2Service = mean(m.sum.L2Service, m.exercised.L2Service)
	rep.Mem.MeanL2MSHR = mean(m.sum.L2MSHR, m.exercised.L2MSHR)
	rep.Mem.MeanDRAMQueue = mean(m.sum.DRAMQueue, m.exercised.DRAMQueue)
	rep.Mem.MeanDRAMService = mean(m.sum.DRAMService, m.exercised.DRAMService)
	rep.Mem.MeanICNTResp = mean(m.sum.ICNTResp, m.exercised.ICNTResp)

	rep.LeastProgressed = r.leastProgressed()
	return rep
}

func mean(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// leastProgressed ranks every finished warp by final progress,
// ascending, ties broken by SM then warp slot for determinism.
func (r *Recorder) leastProgressed() []WarpStat {
	var ws []WarpStat
	for _, t := range r.sms {
		ws = append(ws, t.finished...)
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
