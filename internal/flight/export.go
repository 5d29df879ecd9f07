package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Capture is a recorder's frozen output: run identity, the retained
// event and span windows in chronological order, and drop counts. It is
// safe to use after the run (the rings are copied out).
type Capture struct {
	Kernel        string     `json:"kernel"`
	Scheduler     string     `json:"scheduler"`
	Cycles        int64      `json:"cycles"`
	Stalls        stallsJSON `json:"stalls"`
	Events        []Event    `json:"events"`
	Spans         []MemSpan  `json:"spans"`
	EventsDropped int64      `json:"events_dropped"`
	SpansDropped  int64      `json:"spans_dropped"`
}

// stallsJSON mirrors stats.StallBreakdown with lower-case keys for the
// exported artifact.
type stallsJSON struct {
	Issued     int64 `json:"issued"`
	Idle       int64 `json:"idle"`
	Scoreboard int64 `json:"scoreboard"`
	Pipeline   int64 `json:"pipeline"`
}

// Capture freezes the recorder's rings into an export-ready snapshot.
func (r *Recorder) Capture() *Capture {
	c := &Capture{
		Kernel:    r.kernel,
		Scheduler: r.scheduler,
		Cycles:    r.cycles,
		Stalls: stallsJSON{
			Issued: r.stalls.Issued, Idle: r.stalls.Idle,
			Scoreboard: r.stalls.Scoreboard, Pipeline: r.stalls.Pipeline,
		},
		SpansDropped: r.mem.overwritten,
	}
	for _, t := range r.sms {
		c.Events = append(c.Events, t.events()...)
		c.EventsDropped += t.overwritten
	}
	c.Spans = append(c.Spans, r.mem.spans()...)
	return c
}

// perfEvent is one Chrome/Perfetto trace-event object. Cycles map to
// microseconds one-to-one (ts/dur are µs in the trace-event schema), so
// Perfetto's time axis reads directly as simulated cycles.
type perfEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Partition processes are offset past any plausible SM id so the two
// process families never collide in the trace.
const perfPartPidBase = 1000

// WritePerfetto writes the capture as Chrome trace-event JSON loadable
// by Perfetto (ui.perfetto.dev) and chrome://tracing. SMs become
// processes with one thread per warp slot (progress counters, lifetime
// slices, stall/barrier instants, scheduler events on the scheduler
// threads); L2 partitions become processes whose slices are
// memory-request spans with the latency attribution in args.
func (c *Capture) WritePerfetto(w io.Writer) error {
	var evs []perfEvent

	meta := func(pid int64, name string) {
		evs = append(evs, perfEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}
	threadMeta := func(pid, tid int64, name string) {
		evs = append(evs, perfEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}

	seenSM := map[int64]bool{}
	seenWarp := map[[2]int64]bool{}
	needSM := func(sm int64) {
		if !seenSM[sm] {
			seenSM[sm] = true
			meta(sm, fmt.Sprintf("SM %d", sm))
		}
	}
	needWarp := func(sm, warp int64) {
		k := [2]int64{sm, warp}
		if !seenWarp[k] {
			seenWarp[k] = true
			threadMeta(sm, warp+1, fmt.Sprintf("warp %d", warp))
		}
	}

	for _, e := range c.Events {
		sm := int64(e.SM)
		needSM(sm)
		switch e.Kind {
		case EvWarpProgress:
			needWarp(sm, int64(e.Warp))
			evs = append(evs, perfEvent{
				Name: fmt.Sprintf("warp %d progress", e.Warp), Ph: "C",
				Ts: e.Cycle, Pid: sm, Tid: int64(e.Warp) + 1,
				Args: map[string]any{"progress": e.A},
			})
		case EvWarpFinish:
			needWarp(sm, int64(e.Warp))
			dur := e.Cycle - e.B
			if dur < 1 {
				dur = 1
			}
			evs = append(evs, perfEvent{
				Name: fmt.Sprintf("warp %d tb%d", e.Warp, e.TB), Ph: "X",
				Ts: e.B, Dur: dur, Pid: sm, Tid: int64(e.Warp) + 1,
				Args: map[string]any{"progress": e.A},
			})
		case EvWarpStall:
			needWarp(sm, int64(e.Warp))
			cause := "scoreboard"
			if e.A < 0 {
				cause = "pending_load"
			}
			evs = append(evs, perfEvent{
				Name: "stall:" + cause, Ph: "i", S: "t",
				Ts: e.Cycle, Pid: sm, Tid: int64(e.Warp) + 1,
				Args: map[string]any{"ready_at": e.A},
			})
		case EvWarpBarrier:
			needWarp(sm, int64(e.Warp))
			evs = append(evs, perfEvent{
				Name: "barrier", Ph: "i", S: "t",
				Ts: e.Cycle, Pid: sm, Tid: int64(e.Warp) + 1,
			})
		case EvSlotState, EvSchedResort, EvSchedPick:
			// Scheduler threads sit above the warp threads at tid 0
			// offsets; encode scheduler slot into a negative-free tid
			// space past the warps by reusing tid 0 with named events.
			evs = append(evs, perfEvent{
				Name: e.Kind.String(), Ph: "i", S: "t",
				Ts: e.Cycle, Pid: sm, Tid: 0,
				Args: map[string]any{"slot": e.Slot, "a": e.A, "b": e.B, "warp": e.Warp},
			})
		case EvTBStart, EvTBFinish:
			evs = append(evs, perfEvent{
				Name: e.Kind.String(), Ph: "i", S: "t",
				Ts: e.Cycle, Pid: sm, Tid: 0,
				Args: map[string]any{"tb": e.TB, "a": e.A},
			})
		}
	}

	seenPart := map[int64]bool{}
	for i := range c.Spans {
		sp := &c.Spans[i]
		pid := perfPartPidBase + int64(sp.Part)
		if !seenPart[pid] {
			seenPart[pid] = true
			meta(pid, fmt.Sprintf("L2 partition %d", sp.Part))
		}
		co := sp.Components()
		dur := co.Total
		if dur < 1 {
			dur = 1
		}
		evs = append(evs, perfEvent{
			Name: fmt.Sprintf("%s sm%d 0x%x", sp.Kind, sp.SM, sp.Line), Ph: "X",
			Ts: sp.Inject, Dur: dur, Pid: pid, Tid: int64(sp.SM),
			Args: map[string]any{
				"total":    co.Total,
				"icnt_req": co.ICNTReq, "l2_service": co.L2Service,
				"l2_mshr": co.L2MSHR, "dram_queue": co.DRAMQueue,
				"dram_service": co.DRAMService, "icnt_resp": co.ICNTResp,
				"l2_hit": sp.L2Hit, "l2_merged": sp.L2Merged,
				"row_hit": sp.RowHit, "l1_merged": sp.Merged,
				"retries": sp.Retries, "icnt_queue": sp.ICNTQueue,
			},
		})
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := fmt.Fprintf(bw, "{%q:%q,%q:", "displayTimeUnit", "ms", "traceEvents"); err != nil {
		return err
	}
	if err := enc.Encode(evs); err != nil {
		return err
	}
	if _, err := fmt.Fprint(bw, "}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteNDJSON writes the capture as newline-delimited JSON: one meta
// line, then one object per event and per span, with symbolic kinds and
// the per-span attribution inlined — the machine-consumption format.
func (c *Capture) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	metaLine := struct {
		Type          string     `json:"type"`
		Kernel        string     `json:"kernel"`
		Scheduler     string     `json:"scheduler"`
		Cycles        int64      `json:"cycles"`
		Stalls        stallsJSON `json:"stalls"`
		Events        int        `json:"events"`
		EventsDropped int64      `json:"events_dropped"`
		Spans         int        `json:"spans"`
		SpansDropped  int64      `json:"spans_dropped"`
	}{"meta", c.Kernel, c.Scheduler, c.Cycles, c.Stalls,
		len(c.Events), c.EventsDropped, len(c.Spans), c.SpansDropped}
	if err := enc.Encode(metaLine); err != nil {
		return err
	}
	for _, e := range c.Events {
		line := struct {
			Type  string `json:"type"`
			Kind  string `json:"kind"`
			Cycle int64  `json:"cycle"`
			SM    int16  `json:"sm"`
			Slot  int16  `json:"slot"`
			Warp  int32  `json:"warp"`
			TB    int32  `json:"tb"`
			A     int64  `json:"a"`
			B     int64  `json:"b"`
		}{"event", e.Kind.String(), e.Cycle, e.SM, e.Slot, e.Warp, e.TB, e.A, e.B}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	for i := range c.Spans {
		sp := &c.Spans[i]
		co := sp.Components()
		line := struct {
			Type string         `json:"type"`
			Kind string         `json:"kind"`
			SM   int32          `json:"sm"`
			Part int32          `json:"part"`
			Line uint64         `json:"line"`
			Span MemSpan        `json:"span"`
			Attr SpanComponents `json:"attr"`
		}{"span", sp.Kind.String(), sp.SM, sp.Part, sp.Line, *sp, co}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
