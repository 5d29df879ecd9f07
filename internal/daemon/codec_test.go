package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The client's codec (codec.go, DESIGN.md §9.5): the request appender
// must write json.Marshal's bytes, and the line decoder may only accept
// what json.Unmarshal decodes to an equal Event. `make servetest` runs
// these; `make fuzz` runs the two fuzz targets.

// wireRequest is the BatchRequest Client.Run builds for js.
func wireRequest(t testing.TB, js []jobs.Job) *BatchRequest {
	t.Helper()
	req := &BatchRequest{Jobs: make([]WireJob, len(js))}
	for i := range js {
		wj, err := FromJob(&js[i])
		if err != nil {
			t.Fatal(err)
		}
		req.Jobs[i] = wj
	}
	return req
}

// appendExact demands that the appender takes req and writes exactly
// json.Marshal's bytes.
func appendExact(t *testing.T, what string, req *BatchRequest) {
	t.Helper()
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", what, err)
	}
	a := appender{ok: true}
	if a.batch(req); !a.ok {
		t.Fatalf("%s: the appender declined a request json.Marshal writes", what)
	}
	if !bytes.Equal(a.b, want) {
		n := 0
		for n < len(a.b) && n < len(want) && a.b[n] == want[n] {
			n++
		}
		t.Fatalf("%s: appended bytes differ from json.Marshal's at byte %d:\n got …%s\nwant …%s",
			what, n, a.b[max(0, n-40):min(len(a.b), n+40)], want[max(0, n-40):min(len(want), n+40)])
	}
}

// TestAppendBatchMatchesMarshal is the deterministic twin of
// FuzzAppendBatch: every request the paper grid makes — at -maxtbs 8 and
// at full size — and one with every knob a client can turn (PRO+… specs,
// a 56-SM config, timeline and sampling options, unlabelled jobs) must be
// appended byte for byte as json.Marshal writes it.
func TestAppendBatchMatchesMarshal(t *testing.T) {
	scheds := []string{"TL", "LRR", "GTO", "PRO"}
	for _, maxTBs := range []int{8, 0} {
		grid := jobs.Grid(workloads.All(), scheds, maxTBs, gpu.Options{})
		appendExact(t, fmt.Sprintf("grid at maxtbs %d", maxTBs), wireRequest(t, grid))
	}
	wide := config.GTX480()
	wide.NumSMs = 56
	specs := []string{"PRO+threshold=500", "PRO+ordertrace+threshold=default", "PRO-nobar+ordertrace", "PRO-norm+threshold=1"}
	opts := gpu.Options{Timeline: true, SampleEvery: 500, MaxCycles: 1 << 40, StallWindow: 7}
	req := wireRequest(t, jobs.Grid(workloads.All(), scheds, 8, opts))
	for i := range req.Jobs {
		switch wj := &req.Jobs[i]; i % 3 {
		case 0:
			wj.Scheduler = specs[i%len(specs)]
		case 1:
			wj.Config = wide
		case 2:
			wj.Kernel = ""
		}
	}
	appendExact(t, "every client knob", req)
}

// plainString reports whether the appender writes s itself.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// fuzzRequest builds a two-job request around the fuzzed values: one job
// with a config, one without, a program with a memory, a branch and a
// loop record, the integers at both signs.
func fuzzRequest(p float64, kernel, sched string, n int64, u uint64) *BatchRequest {
	prog := &isa.Program{Name: kernel, Code: []isa.Instr{
		{Op: isa.OpLdGlobal, Dst: 1, Srcs: [3]isa.Reg{2, 3, isa.Reg(u)},
			Mem: &isa.MemSpec{Pattern: isa.PatStrided, Stride: int(n), Region: u, Space: uint8(n), IterVaries: n%2 == 0}},
		{Op: isa.OpBra, Branch: &isa.BranchSpec{Kind: isa.BrRandom, N: int(n), P: p, LoopID: -int(n), Target: 2, Reconv: int(u >> 1)}},
		{Op: isa.OpExit},
	}, Loops: []isa.LoopSpec{{Min: 1, Max: int(n), Imb: isa.Imbalance(u)}}}
	launch := &engine.Launch{Program: prog, GridTBs: int(n), BlockThreads: int(-n), RegsPerThread: int(u), SharedMemPerTB: 1, Seed: u}
	cfg := config.GTX480()
	cfg.NumSMs = int(n)
	opts := gpu.Options{Timeline: u%2 == 1, SampleEvery: n, MaxCycles: -n, StallWindow: int64(u)}
	return &BatchRequest{Jobs: []WireJob{
		{Config: cfg, Launch: launch, Kernel: kernel, Scheduler: sched, Options: opts},
		{Launch: launch, Kernel: sched, Scheduler: kernel},
	}}
}

// FuzzAppendBatch: for a request built from the fuzzed float, strings and
// integers, encodeBatch must return json.Marshal's bytes, or both fail;
// and the appender itself must take the request exactly when the float is
// finite and every string plain, so the comparison is not against its own
// fallback. `make fuzz` runs it for 10 s; the seeds run under plain `go test`.
func FuzzAppendBatch(f *testing.F) {
	for _, p := range []float64{0, math.Copysign(0, -1), 0.25, 1.0 / 3, 1, 1e-6, 9.999999999999999e-7, 1e-7,
		1.5e-10, 5e-324, 1e20, 9.999999999999999e20, 1e21, math.MaxFloat64, -1e-7, -1e21, math.NaN(), math.Inf(-1)} {
		f.Add(p, "aesEncrypt128", "PRO+threshold=500", int64(7), uint64(1))
	}
	for _, s := range []string{"", `"`, `\`, "<", ">", "&", "\x00", "\x1f", "\x7f", "é", "\u2028", "\xff", " ~"} {
		f.Add(0.5, s, "LRR", int64(-1), uint64(math.MaxUint64))
		f.Add(0.5, "k", s, int64(1), uint64(2))
	}
	f.Add(0.5, "k", "s", int64(math.MinInt64), uint64(0))
	f.Fuzz(func(t *testing.T, p float64, kernel, sched string, n int64, u uint64) {
		req := fuzzRequest(p, kernel, sched, n, u)
		got, gotErr := encodeBatch(req)
		want, wantErr := json.Marshal(req)
		if (gotErr != nil) != (wantErr != nil) || gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encodeBatch: %v\n%s\njson.Marshal: %v\n%s", gotErr, got, wantErr, want)
		}
		a := appender{ok: true}
		a.batch(req)
		takes := !math.IsNaN(p) && !math.IsInf(p, 0) && plainString(kernel) && plainString(sched)
		if a.ok != takes {
			t.Fatalf("appender took the request: %v, want %v (p %v, strings %q %q)", a.ok, takes, p, kernel, sched)
		}
	})
}

// FuzzDecodeEvent checks the one-sided contract of decodeEvent: whenever
// it accepts a line, json.Unmarshal accepts it too and decodes an equal
// Event. (It may decline what Unmarshal accepts; readEvents then hands
// the rest of the stream to json.Decoder.)
func FuzzDecodeEvent(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "batch3.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n")) {
		f.Add(line)
	}
	for _, s := range []string{
		`{"type":"batch","results":[]}`,
		`{"type":"batch","results":null}`,
		`{"type":"batch","results":[{}]}`,
		`{"type":"batch","results":[{"result":null}]}`,
		`{"type":"batch","results":[{"result":{"Cycles":1},"result":{"WarpInstrs":2}}]}`,
		`{"type":"batch","results":[{"result":{"Stalls":{"Idle":1},"Mem":{},"Timeline":[]}}]}`,
		`{"type":"job","seq":-0,"index":0}`,
		`{"type":"job","seq":007}`,
		`{"type":"job","elapsedMs":123456789012345678}`,
		`{"type":"job","elapsedMs":1234567890123456789}`,
		`{"type":"job","elapsedMs":99999999999999999999}`,
		`{"type":"job","seq":1.0}`,
		`{"type":"job","seq":1e2}`,
		`{"type":"job","seq":-}`,
		`{"type":"job","fromCache":true,"deduped":false}`,
		`{"type":"job","index":1,"index":2}`,
		`{"Type":"job"}`,
		`{"type":"jo\"b"}`,
		`{"type":"job","kernel":"a\\b"}`,
		`{"type":"job","kernel":"é"}`,
		`{"type": "job"}`,
		`{"type":"job"} `,
		`{"type":"job"}{}`,
		`{}`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var ev Event
		if !decodeEvent(line, &ev) {
			return
		}
		var ref Event
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("decodeEvent accepted a line json.Unmarshal refuses (%v):\n%s", err, line)
		}
		if !reflect.DeepEqual(ev, ref) {
			t.Fatalf("decodeEvent and json.Unmarshal differ on\n%s\n got %+v\nwant %+v", line, ev, ref)
		}
	})
}

// fill sets every exported, serialised field reachable from v to a
// non-zero value (slices get two elements, pointers a new value), except
// the fields skip names as "Type.Field".
func fill(t *testing.T, v reflect.Value, next *int, skip map[string]bool) {
	*next++
	k := *next%120 + 1
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if sf.IsExported() && sf.Tag.Get("json") != "-" && !skip[v.Type().Name()+"."+sf.Name] {
				fill(t, v.Field(i), next, skip)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), next, skip)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), next, skip)
		}
	case reflect.String:
		v.SetString("s" + strconv.Itoa(k))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(k))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(k))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(k) + 0.25)
	default:
		t.Fatalf("fill: no non-zero value for a %s", v.Type())
	}
}

// nullOnly names the result fields the line decoder takes only as null:
// a warm grid sends none of them, and a line carrying one goes to
// json.Decoder.
var nullOnly = []string{"KernelResult.Timeline", "KernelResult.OrderTrace", "KernelResult.Samples"}

// TestCodecCoversEveryField is the field-drift guard: a field added to a
// type the codec writes or reads must fail here, not be dropped from the
// request or silently send every response line to the slow path. Every
// exported field of the request types, filled non-zero, must be appended
// as json.Marshal writes it; every field of Event, JobResult and
// KernelResult but the null-only ones, filled non-zero and marshalled,
// must be decoded to an equal Event; and each null-only field, filled,
// must make the decoder decline.
func TestCodecCoversEveryField(t *testing.T) {
	next := 0
	var wj WireJob
	fill(t, reflect.ValueOf(&wj).Elem(), &next, nil)
	appendExact(t, "every request field set", &BatchRequest{Jobs: []WireJob{wj, {}}})

	skip := map[string]bool{}
	for _, name := range nullOnly {
		skip[name] = true
	}
	var want Event
	fill(t, reflect.ValueOf(&want).Elem(), &next, skip)
	line, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	if !decodeEvent(line, &got) {
		t.Fatalf("decodeEvent declined a line with every field set:\n%s", line)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeEvent lost a field:\n got %+v\nwant %+v", got, want)
	}
	for _, name := range nullOnly {
		ev := Event{Type: "batch", Results: []JobResult{{Result: new(stats.KernelResult)}}}
		field := reflect.ValueOf(ev.Results[0].Result).Elem().FieldByName(strings.TrimPrefix(name, "KernelResult."))
		fill(t, field, &next, nil)
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if decodeEvent(line, new(Event)) {
			t.Errorf("decodeEvent took a result with %s set:\n%s", name, line)
		}
	}
}

// TestFastDecoderTakesDaemonLines: every line the daemon emits for
// testdata/batch3.ndjson's jobs, cold and warm, is taken by the line
// decoder, except the lines carrying the unknown scheduler's error: its
// text quotes the spec, which arrives escaped, and such a line goes to
// json.Decoder by design.
func TestFastDecoderTakesDaemonLines(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 2, CacheDir: t.TempDir()})
	j := quickJob(t, "LRR")
	body := rawBatch(t, []json.RawMessage{
		encodeWire(t, &j, nil),
		encodeWire(t, &j, func(wj *WireJob) { wj.Scheduler = "PRO+threshold=500" }),
		encodeWire(t, &j, func(wj *WireJob) { wj.Scheduler = "NOPE"; wj.Kernel = "mislabelled" }),
	}, "")
	taken := 0
	for _, phase := range []string{"cold", "warm"} {
		status, out := postBatch(t, c.base, body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", phase, status, out)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n")) {
			escaped := bytes.Contains(line, []byte(`\"NOPE\"`))
			if ok := decodeEvent(line, new(Event)); ok == escaped {
				t.Errorf("%s: decodeEvent took the line: %v, want %v:\n%s", phase, ok, !escaped, line)
			} else if ok {
				taken++
			}
		}
	}
	if taken != 4 {
		t.Errorf("decodeEvent took %d lines, want the 2 job events of each phase", taken)
	}
}

// refRun is the reference for Client.Run's reading of a response: the
// json.Decoder loop as it was before readEvents, over the same stream,
// and the same assembly of the batch line.
func refRun(c *Client, js []jobs.Job, body io.Reader) ([]*stats.KernelResult, []jobs.Event, error) {
	var progress []jobs.Event
	resolved := make([]bool, len(js))
	dec := json.NewDecoder(body)
	var batch *Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return nil, progress, c.transportErr(fmt.Errorf("stream broke mid-batch: %w", err), js, resolved)
		}
		switch ev.Type {
		case "job":
			if ev.Index >= 0 && ev.Index < len(js) {
				resolved[ev.Index] = true
			}
			progress = append(progress, jobs.Event{
				Kernel: ev.Kernel, Scheduler: ev.Scheduler, Done: ev.Done, Total: ev.Total,
				FromCache: ev.FromCache, CacheHits: ev.CacheHits,
				Elapsed: time.Duration(ev.ElapsedMS) * time.Millisecond,
				ETA:     time.Duration(ev.EtaMS) * time.Millisecond,
			})
		case "batch":
			b := ev
			batch = &b
		}
	}
	if batch == nil {
		return nil, progress, c.transportErr(fmt.Errorf("stream ended without results (daemon shut down?)"), js, resolved)
	}
	if len(batch.Results) != len(js) {
		return nil, progress, c.transportErr(fmt.Errorf("got %d results for %d jobs", len(batch.Results), len(js)), js, resolved)
	}
	out := make([]*stats.KernelResult, len(js))
	for i, jr := range batch.Results {
		if jr.Err != "" {
			wj, _ := FromJob(&js[i])
			return nil, progress, fmt.Errorf("daemon: job %d (%s/%s): %s", i, wj.Kernel, wj.Scheduler, jr.Err)
		}
		if jr.Result == nil {
			for k, jr := range batch.Results {
				resolved[k] = jr.Result != nil || jr.Err != ""
			}
			return nil, progress, c.transportErr(fmt.Errorf("job %d: batch line carries neither a result nor an error", i), js, resolved)
		}
		out[i] = jr.Result
	}
	return out, progress, nil
}

// streamCase is one /v1/batch response of the stream table: the bytes a
// server sends for js, whether it then breaks the connection with bytes
// still owed (a Content-Length past the body), and whether decodeEvent
// takes every line of it.
type streamCase struct {
	name        string
	js          []jobs.Job
	body        []byte
	short, fast bool
}

// replaceOnce replaces the first old in b, which must hold it.
func replaceOnce(t *testing.T, b []byte, old, new string) []byte {
	t.Helper()
	if !bytes.Contains(b, []byte(old)) {
		t.Fatalf("stream holds no %q", old)
	}
	return bytes.Replace(b, []byte(old), []byte(new), 1)
}

// TestRunMatchesReferenceOnStreams is the exactness gate of the one-pass
// response read: for a table of streams — the daemon's own, then each
// way a stream can leave the fast path (pretty-printed lines, CRLF, an
// unknown field, an escaped kernel name, a PRO+ordertrace result, blank
// and garbage lines, duplicate and case-variant keys, oversize and
// non-integer numbers, a line over 4 KB, a stream cut mid-line, a
// connection dropped with bytes owed) — Client.Run, reading from an
// httptest server that sends the bytes in 7-byte flushed pieces, must
// return the results, progress events and error (text, type and pending
// jobs) refRun returns over the same bytes.
func TestRunMatchesReferenceOnStreams(t *testing.T) {
	_, dc := newTestDaemon(t, Config{Workers: 2, CacheDir: t.TempDir()})
	var ws []*workloads.Workload
	for _, k := range []string{"aesEncrypt128", "scalarProdGPU", "cenergy"} {
		w, err := workloads.ByKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	grid := jobs.Grid(ws, []string{"TL", "LRR", "GTO", "PRO"}, 8, gpu.Options{})
	stream := func(js []jobs.Job) []byte {
		status, out := postBatch(t, dc.base, batchBody(t, js, "", nil))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, out)
		}
		return out
	}
	small, big := stream(grid[:2]), stream(grid)
	if n := bytes.LastIndexByte(big[:len(big)-1], '\n'); len(big)-n < 4096 {
		t.Fatalf("the %d-job batch line is %d bytes, not over the 4 KB reader", len(grid), len(big)-n)
	}
	lrr := quickJob(t, "LRR")
	wj, err := FromJob(&lrr)
	if err != nil {
		t.Fatal(err)
	}
	wj.Scheduler = "PRO+ordertrace"
	traced, err := wj.Job()
	if err != nil {
		t.Fatal(err)
	}
	tracedJobs := []jobs.Job{lrr, traced}
	ordertrace := stream(tracedJobs)
	if !bytes.Contains(ordertrace, []byte(`"OrderTrace":[`)) {
		t.Fatalf("the PRO+ordertrace result carries no order trace:\n%s", ordertrace)
	}
	lines := bytes.SplitAfter(small, []byte("\n"))
	lines = lines[:len(lines)-1]
	last := len(lines[len(lines)-1]) // the batch line, newline included
	var pretty bytes.Buffer
	for _, l := range lines {
		if err := json.Indent(&pretty, l, "", "  "); err != nil {
			t.Fatal(err)
		}
	}
	longLabel := strings.Repeat("k", 5000)
	two := grid[:2]
	cases := []streamCase{
		{"daemon stream", two, small, false, true},
		{"daemon stream, batch line over 4 KB", grid, big, false, true},
		{"job line over 4 KB", two, replaceOnce(t, small, `"kernel":"aesEncrypt128"`, `"kernel":"`+longLabel+`"`), false, true},
		{"PRO+ordertrace result", tracedJobs, ordertrace, false, false},
		{"pretty-printed", two, pretty.Bytes(), false, false},
		{"CRLF", two, bytes.ReplaceAll(small, []byte("\n"), []byte("\r\n")), false, false},
		{"blank lines", two, bytes.ReplaceAll(small, []byte("\n"), []byte("\n\n")), false, false},
		{"no final newline", two, bytes.TrimSuffix(small, []byte("\n")), false, false},
		{"two values on one line", two, bytes.Replace(small, []byte("}\n{"), []byte("}{"), 1), false, false},
		{"unknown event field", two, replaceOnce(t, small, `{"type":"job"`, `{"x":[1,{"y":null}],"type":"job"`), false, false},
		{"unknown result field", two, replaceOnce(t, small, `"Cycles":`, `"Extra":{"a":[]},"Cycles":`), false, false},
		{"escaped kernel name", two, replaceOnce(t, small, `"kernel":"aesEncrypt128"`, `"kernel":"a\"<&>\u00e9"`), false, false},
		{"escaped result kernel", two, replaceOnce(t, small, `"Kernel":"aesEncrypt128"`, `"Kernel":"a\u0026b"`), false, false},
		{"duplicate key", two, replaceOnce(t, small, `"type":"job"`, `"type":"batch","type":"job"`), false, false},
		{"case-variant key", two, replaceOnce(t, small, `"type":"job"`, `"Type":"job"`), false, false},
		{"19-digit integer", two, replaceOnce(t, small, `"type":"job"`, `"type":"job","elapsedMs":1234567890123456789`), false, false},
		{"fraction in an int field", two, replaceOnce(t, small, `"type":"job"`, `"type":"job","seq":1.5`), false, false},
		{"garbage line", two, replaceOnce(t, small, "}\n", "}\ngarbage\n"), false, false},
		{"cut mid job line", two, small[:bytes.IndexByte(small, '\n')/2], false, false},
		{"cut mid batch line", two, small[:len(small)-last/2], false, false},
		{"cut after the job lines", two, small[:len(small)-last], false, true},
		{"connection dropped mid batch line", two, small[:len(small)-20], true, false},
		{"connection dropped after a line", two, small[:bytes.IndexByte(small, '\n')+1], true, true},
		{"empty stream", two, nil, false, false},
		{"null results", two, []byte(`{"type":"batch","results":null}` + "\n"), false, false},
		{"more results than jobs", grid[:1], small[bytes.LastIndexByte(small[:len(small)-1], '\n')+1:], false, true},
		{"job error on the batch line", two, replaceOnce(t, small, `{"result":{`, `{"err":"boom","result":{`), false, true},
		{"result entry with neither result nor err", grid[:1], []byte(`{"type":"batch","results":[{}]}` + "\n"), false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fast {
				for _, line := range bytes.Split(bytes.TrimSuffix(tc.body, []byte("\n")), []byte("\n")) {
					if !decodeEvent(line, new(Event)) {
						t.Fatalf("decodeEvent declined a line of the daemon's:\n%s", line)
					}
				}
			}
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				w.Header().Set("Content-Type", "application/x-ndjson")
				if tc.short {
					w.Header().Set("Content-Length", strconv.Itoa(len(tc.body)+10))
				}
				w.WriteHeader(http.StatusOK)
				for b := tc.body; len(b) > 0; b = b[min(7, len(b)):] {
					w.Write(b[:min(7, len(b))])
					w.(http.Flusher).Flush()
				}
			}))
			defer srv.Close()
			c := NewClient(srv.URL)
			var progress []jobs.Event
			c.Progress = func(ev jobs.Event) { progress = append(progress, ev) }
			got, err := c.Run(context.Background(), tc.js)

			var ref io.Reader = bytes.NewReader(tc.body)
			if tc.short {
				ref = io.MultiReader(ref, errReader{io.ErrUnexpectedEOF})
			}
			want, wantProgress, wantErr := refRun(c, tc.js, ref)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("Run error:\n %v\nreference:\n %v", err, wantErr)
			}
			var te, wantTE *TransportError
			if errors.As(err, &te) != errors.As(wantErr, &wantTE) || te != nil && !reflect.DeepEqual(te.Pending, wantTE.Pending) {
				t.Fatalf("Run transport error %+v, reference %+v", te, wantTE)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Run results differ from the reference's")
			}
			if !reflect.DeepEqual(progress, wantProgress) {
				t.Fatalf("Run progress %+v\nreference %+v", progress, wantProgress)
			}
		})
	}
}

// TestRunRejectsEmptyJobResult: a batch line entry with neither a result
// nor an error is not a finished job. Run must not hand back a nil
// result with a nil error (a coordinator would store it as done); it
// reports a TransportError naming the job as pending, so the job is
// retried.
func TestRunRejectsEmptyJobResult(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"type":"batch","results":[{}]}`+"\n")
	}))
	defer srv.Close()
	j := quickJob(t, "LRR")
	rs, err := NewClient(srv.URL).Run(context.Background(), []jobs.Job{j})
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("Run returned %v, %v; want a TransportError", rs, err)
	}
	key, _, kerr := jobs.Key(&j)
	if kerr != nil {
		t.Fatal(kerr)
	}
	if rs != nil || len(te.Pending) != 1 || te.Pending[0] != shortKey(key) {
		t.Fatalf("Run returned %v with pending %v; want no results and the job %s pending", rs, te.Pending, shortKey(key))
	}
}
