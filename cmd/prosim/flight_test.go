package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/jobs"
	"repro/internal/workloads"
	"repro/prosim"
)

// runFlightKeepsOut runs `prosim flight` with args and -out naming an
// existing file, and checks that the invocation is rejected with want
// on stderr before -out is created: the file keeps its bytes.
func runFlightKeepsOut(t *testing.T, want string, args ...string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "keep.out")
	keep := []byte("an earlier capture\n")
	if err := os.WriteFile(out, keep, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := runProsim(t, append(append([]string{"flight"}, args...), "-out", out)...)
	if err == nil {
		t.Fatalf("flight accepted %q", args)
	}
	if !strings.Contains(stderr, want) {
		t.Errorf("stderr %q does not say %q", stderr, want)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, keep) {
		t.Errorf("-out changed to %q, want %q", got, keep)
	}
}

// TestFlightBadFormatKeepsOut pins that a rejected -format fails before
// -out is created: an existing file keeps its bytes and nothing is
// simulated.
func TestFlightBadFormatKeepsOut(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	runFlightKeepsOut(t, `unknown format "pdf"`,
		"-kernel", "scalarProdGPU", "-scheds", "PRO", "-maxtbs", "2", "-format", "pdf")
}

// TestFlightUnknownSchedulerKeepsOut pins the same for an unknown
// scheduler, alone or after a valid one: every spec is resolved before
// -out is created, so the file is not truncated to zero bytes.
func TestFlightUnknownSchedulerKeepsOut(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	for _, tc := range []struct{ scheds, format string }{
		{"BOGUS", "perfetto"},
		{"LRR,BOGUS", "report"},
	} {
		t.Run(tc.scheds, func(t *testing.T) {
			runFlightKeepsOut(t, `unknown scheduler "BOGUS"`,
				"-maxtbs", "4", "-scheds", tc.scheds, "-format", tc.format)
		})
	}
}

// record runs one small recorded simulation, exactly as recordFlight
// does.
func record(t *testing.T, sched string) *flight.Recorder {
	t.Helper()
	w, err := workloads.ByKernel("scalarProdGPU")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Shrunk(8)
	eng, err := jobs.New(1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New()
	if _, err := eng.RunOne(context.Background(), jobs.Job{
		Launch:    w.Launch,
		Kernel:    w.Kernel,
		Scheduler: sched,
		Options:   prosim.Options{Flight: rec},
	}); err != nil {
		t.Fatal(err)
	}
	if !rec.Recorded() {
		t.Fatal("run not recorded")
	}
	return rec
}

// TestFlightPerfettoStructure is the acceptance test for the export: a
// recorded scalarProdGPU run emits structurally valid Chrome/Perfetto
// trace-event JSON — a displayTimeUnit plus a traceEvents array whose
// entries carry the required fields per phase type — with at least one
// per-warp progress counter track and one memory-request span.
func TestFlightPerfettoStructure(t *testing.T) {
	rec := record(t, "PRO")
	var buf bytes.Buffer
	if err := rec.Capture().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *int64         `json:"ts"`
			Dur  *int64         `json:"dur"`
			Pid  *int64         `json:"pid"`
			Tid  *int64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	var progress, spans, metas, instants int
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
			if e.Name != "process_name" && e.Name != "thread_name" {
				t.Fatalf("event %d: metadata name %q", i, e.Name)
			}
		case "C":
			if e.Ts == nil || e.Pid == nil {
				t.Fatalf("event %d: counter missing ts/pid: %+v", i, e)
			}
			if strings.Contains(e.Name, "progress") {
				progress++
				if _, ok := e.Args["progress"]; !ok {
					t.Fatalf("event %d: progress counter without a progress arg", i)
				}
			}
		case "X":
			if e.Ts == nil || e.Dur == nil || e.Pid == nil || e.Tid == nil || e.Name == "" {
				t.Fatalf("event %d: complete event missing ts/dur/pid/tid/name: %+v", i, e)
			}
			if *e.Dur < 1 {
				t.Fatalf("event %d: non-positive dur %d", i, *e.Dur)
			}
			// Memory spans live on the partition rows (pid >= 1000) and
			// carry the full component breakdown.
			if *e.Pid >= 1000 {
				spans++
				for _, k := range []string{"icnt_req", "l2_mshr", "icnt_resp", "total"} {
					if _, ok := e.Args[k]; !ok {
						t.Fatalf("event %d: span missing %s arg: %+v", i, k, e.Args)
					}
				}
			}
		case "i":
			instants++
			if e.Ts == nil {
				t.Fatalf("event %d: instant without ts", i)
			}
		default:
			t.Fatalf("event %d: unexpected phase %q", i, e.Ph)
		}
	}
	if metas == 0 || progress == 0 || spans == 0 || instants == 0 {
		t.Fatalf("track coverage: metas=%d progress=%d spans=%d instants=%d (all must be > 0)",
			metas, progress, spans, instants)
	}
}

// TestFlightNDJSONStream pins the line-oriented export: a meta header
// line, then one well-formed JSON object per event and span with
// symbolic kind names.
func TestFlightNDJSONStream(t *testing.T) {
	rec := record(t, "LRR")
	var buf bytes.Buffer
	if err := rec.Capture().WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("only %d NDJSON lines", len(lines))
	}
	var events, spans int
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		typ, _ := obj["type"].(string)
		switch typ {
		case "meta":
			if i != 0 {
				t.Fatalf("meta line at position %d, want 0", i)
			}
			if obj["kernel"] != "scalarProdGPU" {
				t.Fatalf("meta kernel %v", obj["kernel"])
			}
		case "event":
			events++
		case "span":
			spans++
		default:
			t.Fatalf("line %d: unknown type %q", i, typ)
		}
	}
	if events == 0 || spans == 0 {
		t.Fatalf("stream coverage: events=%d spans=%d", events, spans)
	}
}

// TestFlightReportTable smoke-tests the report rendering used by the
// default format: a header row plus one row per scheduler, each naming
// its run (kernel and scheduler), then the least-progressed warps.
func TestFlightReportTable(t *testing.T) {
	reps := []flight.Report{record(t, "LRR").Report(), record(t, "PRO").Report()}
	var buf bytes.Buffer
	writeReportTable(&buf, reps)
	out := buf.String()
	for _, want := range []string{"scheduler", "dram_queue", "scalarProdGPU  LRR", "scalarProdGPU  PRO",
		"scalarProdGPU/PRO least-progressed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report table missing %q:\n%s", want, out)
		}
	}
}
