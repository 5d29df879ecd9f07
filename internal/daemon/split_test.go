package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/workloads"
)

// refReadBatch is the reference for readBatch: /v1/batch's decode as it
// was before the one-pass splitter, the streaming decoder reading straight
// off the capped body and the per-job loop written out in full.
func refReadBatch(d *Daemon, w http.ResponseWriter, r *http.Request) ([]*memoJob, bool) {
	var req struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	bodyCap := maxJobBytes * int64(d.cfg.MaxBatchJobs)
	r.Body = http.MaxBytesReader(w, r.Body, bodyCap)
	if err := json.NewDecoder(r.Body).Decode(&req); errors.As(err, new(*http.MaxBytesError)) {
		d.reject(w, http.StatusRequestEntityTooLarge, mRejectedBodySize,
			fmt.Sprintf("batch body exceeds the %d-byte cap; split it", bodyCap), 0)
		return nil, false
	} else if err != nil {
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(req.Jobs) > d.cfg.MaxBatchJobs {
		d.reject(w, http.StatusRequestEntityTooLarge, mRejectedBatchSize,
			fmt.Sprintf("batch of %d jobs exceeds the %d-job cap; split it", len(req.Jobs), d.cfg.MaxBatchJobs), 0)
		return nil, false
	}
	js := make([]*memoJob, len(req.Jobs))
	for i, raw := range req.Jobs {
		mj, err := d.decodeJob(raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad job %d: %v", i, err), http.StatusBadRequest)
			return nil, false
		}
		js[i] = mj
	}
	return js, true
}

// readCase is one /v1/batch body of the differential corpus: split is
// splitBatch's expected verdict on it, claimedLen a Content-Length header
// other than the body's own (0 for the real length).
type readCase struct {
	name       string
	body       []byte
	split      bool
	claimedLen int64
}

// readCorpus builds the differential corpus over grid's wire encodings.
func readCorpus(t testing.TB, grid []jobs.Job, maxJobs int) []readCase {
	one := batchBody(t, grid[:1], "", nil)
	b25 := batchBody(t, grid[:25], "", nil)
	a := encodeWire(t, &grid[0], nil)
	b := encodeWire(t, &grid[1], nil)
	jobsOf := func(raws ...[]byte) string {
		return `"jobs":[` + string(bytes.Join(raws, []byte(","))) + `]`
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, b25, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	const bs = `\` // spelled out so the escapes below stay visible
	labels := []string{`x"}]}`, `"]`, bs + `"`, bs, "\u00e9 <&> \u2028"}
	escaped := batchBody(t, grid[:len(labels)], "", func(i int, wj *WireJob) { wj.Kernel = labels[i] })
	over := make([]jobs.Job, maxJobs+1)
	for i := range over {
		over[i] = grid[i%len(grid)]
	}
	bodyCap := maxJobBytes * maxJobs
	mixed := batchBody(t, grid[:3], "", func(i int, wj *WireJob) {
		if i == 1 {
			wj.Scheduler = "NOPE"
		}
	})
	urgent := []byte(`{` + jobsOf(a, withJobPriority(b, "urgent")) + `}`)
	return []readCase{
		{"client one job", one, true, 0},
		{"client 25 jobs", b25, true, 0},
		{"older client's batch priority", batchBody(t, grid[:25], "bulk", nil), false, 0},
		{"client labels with quotes, brackets, backslashes, non-ASCII", escaped, true, 0},
		{"client unknown scheduler among known", mixed, true, 0},
		{"priority before jobs", []byte(`{"priority":"bulk",` + jobsOf(a, b) + `}`), false, 0},
		{"indented", indented.Bytes(), true, 0},
		{"whitespace around every token", []byte(" \r\n{\t\"jobs\" :\n[ " + string(a) + " ,\n" + string(b) + " ] }\n"), true, 0},
		{"trailing bytes after the object", append(append([]byte{}, one...), "garbage}]"...), true, 0},
		{"empty jobs", []byte(`{"jobs":[]}`), true, 0},
		{"case-variant key", []byte(`{"Jobs":[` + string(a) + `]}`), false, 0},
		{"case-variant priority key", []byte(`{` + jobsOf(a) + `,"PRIORITY":"bulk"}`), false, 0},
		{"escaped key", []byte(`{"jo` + bs + `u0062s":[` + string(a) + `]}`), false, 0},
		{"duplicate jobs", []byte(`{` + jobsOf(a) + `,` + jobsOf(b) + `}`), false, 0},
		{"duplicate priority", []byte(`{` + jobsOf(a) + `,"priority":"bulk","priority":"interactive"}`), false, 0},
		{"null jobs", []byte(`{"jobs":null}`), false, 0},
		{"null element", []byte(`{"jobs":[` + string(a) + `,null]}`), false, 0},
		{"null priority", []byte(`{` + jobsOf(a) + `,"priority":null}`), false, 0},
		{"escaped priority", []byte(`{` + jobsOf(a) + `,"priority":"b` + bs + `u0075lk"}`), false, 0},
		{"non-ASCII priority", []byte(`{` + jobsOf(a) + `,"priority":"bülk"}`), false, 0},
		{"unknown priority", batchBody(t, grid[:2], "bogus", nil), false, 0},
		{"unknown job priority", urgent, true, 0},
		{"unknown top-level key", []byte(`{` + jobsOf(a) + `,"x":{"jobs":[]}}`), false, 0},
		{"no jobs key", []byte(`{}`), false, 0},
		{"not an object", []byte(`[` + string(a) + `]`), false, 0},
		{"empty body", nil, false, 0},
		{"truncated", b25[:len(b25)/2], false, 0},
		{"syntax error inside one element", []byte(`{` + jobsOf(a, []byte(`{"kernel":"k",,"x":1}`), b) + `}`), true, 0},
		{"wrong type inside one element", []byte(`{` + jobsOf(a, []byte(`{"launch":7}`), b) + `}`), true, 0},
		{"element without launch", []byte(`{"jobs":[{"scheduler":"PRO"}]}`), true, 0},
		{"over the job cap", batchBody(t, over, "", nil), true, 0},
		{"complete object, then bytes past the body cap", append(append([]byte{}, one...), bytes.Repeat([]byte(" "), bodyCap)...), true, 0},
		{"incomplete object past the body cap", append([]byte(`{"jobs":[`), bytes.Repeat([]byte(" "), bodyCap)...), false, 0},
		{"Content-Length far over the cap", one, true, 64 << 20},
	}
}

// TestBatchReadMatchesReference is the exactness gate of the one-pass
// body read (DESIGN.md §9.5): over a corpus of /v1/batch bodies — the
// client's own encodings, every variant the splitter must decline,
// malformed, truncated and oversized bodies — handleBatch and a handler
// reading through refReadBatch must give the same status, error text and
// NDJSON lines (time fields removed), splitBatch must give the expected
// verdict, an accepted request must look each job up in the memo exactly
// once, as the reference does, and no request may allocate more than a
// few body caps whatever its Content-Length claims.
//
// Mutation-checked by hand; each of these fails it: objectEnd ignoring
// backslash escapes (the "x\"}]}" label splits one job early: two memo
// lookups where the reference makes one), comparing keys with
// bytes.EqualFold (the verdict on "Jobs"), answering a failed decodeBatch
// from the fast path instead of the reference ("bad job 1: invalid
// character" where the decoder says "bad batch: invalid character"), and
// presizing the buffer from a Content-Length over the cap (64 MiB
// allocated).
func TestBatchReadMatchesReference(t *testing.T) {
	const maxJobs = 30
	ws := make([]*workloads.Workload, 0, 7)
	for _, k := range []string{"aesEncrypt128", "scalarProdGPU", "cenergy", "sha1_overlap",
		"calculate_temp", "dynproc_kernel", "bpnn_layerforward"} {
		w, err := workloads.ByKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	grid := jobs.Grid(ws, []string{"TL", "LRR", "GTO", "PRO"}, 4, gpu.Options{})
	cfg := Config{Workers: 2, CacheDir: t.TempDir(), QueueDepth: 64, MaxBatchJobs: maxJobs}
	// Pre-fill the shared cache so every runnable job is a cache hit on
	// both sides and the fromCache flags agree.
	eng, err := jobs.New(2, cfg.CacheDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	cur, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refHandle := func(w http.ResponseWriter, r *http.Request) {
		if js, ok := refReadBatch(ref, w, r); ok {
			ref.serveBatch(w, r, js)
		}
	}
	// serve runs one request through h, returning the status, the body,
	// the memo lookups it made and the bytes it allocated.
	serve := func(h http.HandlerFunc, c readCase) (int, []byte, int64, uint64) {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(c.body))
		if c.claimedLen != 0 {
			req.ContentLength = c.claimedLen
		}
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lookups := mMemoHits.Value() + mMemoMisses.Value()
		h(rec, req)
		lookups = mMemoHits.Value() + mMemoMisses.Value() - lookups
		runtime.ReadMemStats(&after)
		return rec.Code, rec.Body.Bytes(), lookups, after.TotalAlloc - before.TotalAlloc
	}

	statuses := map[int]int{}
	for _, c := range readCorpus(t, grid, maxJobs) {
		if _, ok := splitBatch(c.body); ok != c.split {
			t.Errorf("%s: splitBatch accepts = %v, want %v", c.name, ok, c.split)
		}
		// Twice: a cold memo, then a warm one.
		for pass := 0; pass < 2; pass++ {
			wantStatus, want, wantLookups, _ := serve(refHandle, c)
			gotStatus, got, gotLookups, alloc := serve(cur.handleBatch, c)
			statuses[wantStatus]++
			if limit := uint64(8 * maxJobBytes * maxJobs); alloc > limit {
				t.Errorf("%s: the handler allocated %d bytes, over %d", c.name, alloc, limit)
			}
			if gotStatus != wantStatus {
				t.Fatalf("%s, pass %d: status %d, reference %d\ngot:  %.300s\nwant: %.300s", c.name, pass, gotStatus, wantStatus, got, want)
			}
			if wantStatus != http.StatusOK {
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, pass %d: error texts differ\ngot:  %s\nwant: %s", c.name, pass, got, want)
				}
				continue
			}
			if g, w := strings.Join(canonNDJSON(got), "\n"), strings.Join(canonNDJSON(want), "\n"); g != w {
				t.Fatalf("%s, pass %d: NDJSON differs\ngot:\n%s\nwant:\n%s", c.name, pass, g, w)
			}
			if gotLookups != wantLookups {
				t.Errorf("%s, pass %d: %d memo lookups, reference %d", c.name, pass, gotLookups, wantLookups)
			}
		}
	}
	for _, must := range []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge} {
		if statuses[must] == 0 {
			t.Errorf("the corpus never produced a %d: %v", must, statuses)
		}
	}
	if n := cur.Engine().Simulated() + ref.Engine().Simulated(); n != 0 {
		t.Errorf("the daemons simulated %d jobs over a pre-filled cache", n)
	}
}

// FuzzSplitBatch checks the one-sided contract of splitBatch: whenever it
// accepts and every raw is valid JSON, json.Decoder.Decode of the same
// bytes succeeds with the same raws. (It may decline what the decoder
// accepts; readBatch then asks the decoder.) `make fuzz` runs it
// for 10 s; the seeds run under plain `go test`.
func FuzzSplitBatch(f *testing.F) {
	js := quickBatch(f)
	client := batchBody(f, js[:2], "", nil)
	a := string(encodeWire(f, &js[0], nil))
	f.Add(client)
	f.Add(batchBody(f, js[:1], "", func(_ int, wj *WireJob) { wj.Kernel = `"}"]"\"` }))
	f.Add([]byte(`{"jobs":[{"kernel":"\"}","x":["]",{"y":"\\"}]}],"priority":"bulk"}`))
	f.Add([]byte(`{"priority":"interactive","jobs":[` + a + `]}`))
	f.Add([]byte(`{"Jobs":[` + a + `]}`))
	f.Add([]byte(`{"jobs":[` + a + `],"jobs":[{}]}`))
	f.Add([]byte(`{"jobs":[{}],"priority":"bulk","priority":"interactive"}`))
	f.Add([]byte(`{"jobs":null}`))
	f.Add([]byte(`{"jobs":[null]}`))
	f.Add([]byte(`{"jobs":[{}],"priority":null}`))
	f.Add([]byte(`{"jobs":[{}]} trailing {"jobs":[]}`))
	f.Add([]byte(" {\n\"jobs\"\t: [ {} , {\"a\":[1,{}]} ] }"))
	f.Fuzz(func(t *testing.T, body []byte) {
		raws, ok := splitBatch(body)
		if !ok {
			return
		}
		for _, raw := range raws {
			if !json.Valid(raw) {
				return // decodeJob refuses it and readBatch asks the decoder
			}
		}
		var req struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("splitBatch accepted a body the decoder refuses: %v", err)
		}
		if len(req.Jobs) != len(raws) {
			t.Fatalf("splitBatch: %d jobs; decoder: %d jobs", len(raws), len(req.Jobs))
		}
		for i := range raws {
			if !bytes.Equal(raws[i], req.Jobs[i]) {
				t.Fatalf("job %d: splitBatch %q, decoder %q", i, raws[i], req.Jobs[i])
			}
		}
	})
}
