package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpansPerName bounds what one span name may contribute to the trace
// file (serve_warm issues tens of thousands of requests per pass); spans
// beyond it are counted in the file's metadata, not written.
const maxSpansPerName = 4000

// span is one timed call into a layer, as the harness sees it from
// outside: name, start, end, the span that caused it, and the pass it
// belongs to.
type span struct {
	id, parent int
	name       string
	track      string
	pass       int
	start, end time.Time
	args       map[string]any
}

// tracer keeps the spans of a traced run in memory and writes them at
// exit as Chrome trace-event JSON, the format the flight recorder's
// Perfetto export uses. A nil tracer records nothing, so call sites need
// no tracing-on check.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	perName map[string]int
	dropped int
	pass    int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), perName: map[string]int{}}
}

// setPass labels the spans that follow with their workload pass.
func (t *tracer) setPass(p int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass = p
	t.mu.Unlock()
}

// begin opens a span under parent (0 for a root) and returns its id, or
// 0 when the span is dropped or the run untraced; track groups spans that
// nest on one timeline.
func (t *tracer) begin(name, track string, parent int) int {
	return t.add(name, track, parent, time.Now(), time.Time{}, nil)
}

// end closes a span begin opened.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose times are already known — a window the harness
// reconstructs after the fact — and returns its id.
func (t *tracer) add(name, track string, parent int, start, end time.Time, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.perName[name] >= maxSpansPerName {
		t.dropped++
		return 0
	}
	t.perName[name]++
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, track: track,
		pass: t.pass, start: start, end: end, args: args})
	return id
}

// timed runs fn inside a span and returns the span's id and fn's
// duration.
func (t *tracer) timed(name, track string, parent int, fn func()) (int, time.Duration) {
	id := t.begin(name, track, parent)
	start := time.Now()
	fn()
	spent := time.Since(start)
	t.end(id)
	return id, spent
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tids := map[string]int{}
	var events []event
	for _, s := range t.spans {
		if s.end.IsZero() {
			continue // never closed: its pass failed
		}
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.track}})
		}
		args := map[string]any{"id": s.id, "parent": s.parent, "pass": s.pass}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.name, Cat: "bench", Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": workload, "spans_dropped": t.dropped},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
