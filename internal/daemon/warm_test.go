package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/workloads"
)

// The warm path (DESIGN.md §9.5): the decoded-request memo, the single
// key computation per job and the flush that rides with the batch line.
// `make servetest` runs this file and the result cache's front tests
// under the race detector.

var updateGolden = flag.Bool("update", false, "rewrite testdata/batch3.ndjson from this tree's responses")

var (
	timeFields  = regexp.MustCompile(`,"(?:elapsedMs|etaMs)":\d+`)
	orderFields = regexp.MustCompile(`"(?:seq|done)":\d+,|,"cacheHits":\d+`)
)

// canonNDJSON splits a /v1/batch response into lines with the two time
// fields removed. Job events of a multi-job batch arrive in completion
// order, which no two runs share: their order-dependent counters (seq,
// done, cacheHits) are removed as well and the job lines sorted, so two
// responses compare equal exactly when they report the same outcome per
// job and the same batch line.
func canonNDJSON(body []byte) []string {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	for i := range lines {
		lines[i] = timeFields.ReplaceAllString(lines[i], "")
	}
	if n := len(lines) - 1; n > 1 {
		for i := range lines[:n] {
			lines[i] = orderFields.ReplaceAllString(lines[i], "")
		}
		sort.Strings(lines[:n])
	}
	return lines
}

// rawBatch assembles a /v1/batch body from already-encoded wire jobs.
func rawBatch(t testing.TB, raws []json.RawMessage, priority string) []byte {
	t.Helper()
	body, err := json.Marshal(struct {
		Jobs     []json.RawMessage `json:"jobs"`
		Priority string            `json:"priority,omitempty"`
	}{raws, priority})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postBatch posts body to a daemon's /v1/batch and returns the status
// and the whole response body.
func postBatch(t testing.TB, base string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// encodeWire marshals j's wire form after edit (which may be nil).
func encodeWire(t testing.TB, j *jobs.Job, edit func(*WireJob)) json.RawMessage {
	t.Helper()
	wj, err := FromJob(j)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(&wj)
	}
	raw, err := json.Marshal(wj)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// memoGroups builds the wire jobs the equivalence stream draws from.
// Each group is one simulation identity — one result-cache key, or none
// for the unknown scheduler — in several encodings that differ only in
// what must stay out of the key: the job's own priority, its label, its
// cost. Encoding 0 and 1 carry no priority of their own. keyed counts
// the leading groups that have a key.
func memoGroups(t testing.TB) (groups [][]json.RawMessage, keyed int) {
	t.Helper()
	kernels := []string{"aesEncrypt128", "scalarProdGPU", "cenergy", "sha1_overlap",
		"calculate_temp", "dynproc_kernel", "bpnn_layerforward"}
	var ws []*workloads.Workload
	for _, k := range kernels {
		w, err := workloads.ByKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	grid := jobs.Grid(ws, []string{"TL", "LRR", "GTO", "PRO"}, 4, gpu.Options{})
	encodings := func(j *jobs.Job, sched string) []json.RawMessage {
		set := func(edit func(*WireJob)) json.RawMessage {
			return encodeWire(t, j, func(wj *WireJob) {
				if sched != "" {
					wj.Scheduler = sched
				}
				if edit != nil {
					edit(wj)
				}
			})
		}
		return []json.RawMessage{
			set(nil),
			set(func(wj *WireJob) { wj.Kernel = "relabelled"; wj.Cost = 7 }),
			set(func(wj *WireJob) { wj.Priority = PriorityBulk }),
			set(func(wj *WireJob) { wj.Priority = PriorityInteractive }),
		}
	}
	for i := range grid {
		groups = append(groups, encodings(&grid[i], ""))
	}
	// A parameterised spec resolves to a factory at decode time; the
	// memo shares that factory between requests.
	for i := 0; i < 2; i++ {
		groups = append(groups, encodings(&grid[4*i], "PRO+threshold=500"))
	}
	keyed = len(groups)
	for i := 0; i < 2; i++ {
		groups = append(groups, encodings(&grid[4*i], "NOPE"))
	}
	return groups, keyed
}

// TestMemoEquivalence is the exactness gate of the decoded-request memo:
// one seeded stream of one-job, 25-job and queue-overflowing requests —
// repeats, per-job priority and label variants, a parameterised spec, an
// unknown scheduler, undecodable jobs, bad priorities — goes to a daemon
// that keeps its memo and to a fresh daemon (empty memo: every job takes
// the plain decode) per request. Status codes, error texts and NDJSON
// lines must be identical. Mutation-checked: hashing a prefix of the
// bytes, memoising the class resolved under the batch's priority, and
// dropping the memoised key error each fail it.
func TestMemoEquivalence(t *testing.T) {
	const queueDepth = 32
	cfg := Config{Workers: 2, CacheDir: t.TempDir(), QueueDepth: queueDepth, MaxBatchJobs: 64}
	groups, keyed := memoGroups(t)
	if len(groups) < 25 {
		t.Fatalf("%d job groups cannot fill a 25-job batch of distinct identities", len(groups))
	}

	// Pre-fill the shared cache so that every keyed job is a cache hit on
	// both sides and the fromCache flags are deterministic.
	_, setup := newTestDaemon(t, cfg)
	for lo := 0; lo < keyed; lo += 16 {
		var raws []json.RawMessage
		for _, g := range groups[lo:min(lo+16, keyed)] {
			raws = append(raws, g[0])
		}
		if status, body := postBatch(t, setup.base, rawBatch(t, raws, "")); status != http.StatusOK ||
			bytes.Contains(body, []byte(`"err"`)) {
			t.Fatalf("pre-fill: status %d\n%s", status, body)
		}
	}

	warm, warmClient := newTestDaemon(t, cfg)
	hits0, misses0 := mMemoHits.Value(), mMemoMisses.Value()
	rng := rand.New(rand.NewSource(1))
	priorities := []string{"", "", PriorityBulk, PriorityInteractive}
	urgent := quickJob(t, "PRO")
	broken := []json.RawMessage{
		json.RawMessage(`{"launch":7,"scheduler":"PRO"}`), // does not decode
		json.RawMessage(`{"scheduler":"PRO"}`),            // decodes, no launch
		encodeWire(t, &urgent, func(wj *WireJob) { wj.Priority = "urgent" }),
	}
	outcomes := map[string]int{}
	for req := 0; req < 150; req++ {
		priority := priorities[rng.Intn(len(priorities))]
		if rng.Intn(25) == 0 {
			priority = "bogus"
		}
		var raws []json.RawMessage
		shape := "single"
		switch n := rng.Intn(10); {
		case n < 5:
			g := groups[rng.Intn(len(groups))]
			raws = append(raws, g[rng.Intn(len(g))])
		case n < 9:
			shape = "batch25"
			for _, gi := range rng.Perm(len(groups))[:25] {
				raws = append(raws, groups[gi][rng.Intn(len(groups[gi]))])
			}
			if rng.Intn(8) == 0 {
				raws[rng.Intn(len(raws))] = broken[rng.Intn(len(broken))]
			}
		default:
			// More jobs than the class queue admits, none with a priority
			// of its own: the refusal names the class the batch's priority
			// resolved to, whatever an earlier batch resolved the same
			// bytes to.
			shape = "overflow"
			g := groups[rng.Intn(len(groups))]
			for len(raws) <= queueDepth {
				raws = append(raws, g[rng.Intn(2)])
			}
		}
		body := rawBatch(t, raws, priority)

		_, fresh := newTestDaemon(t, cfg)
		wantStatus, want := postBatch(t, fresh.base, body)
		gotStatus, got := postBatch(t, warmClient.base, body)
		outcomes[fmt.Sprintf("%s/%d", shape, wantStatus)]++
		if gotStatus != wantStatus {
			t.Fatalf("request %d (%s, priority %q): warm daemon answered %d, fresh daemon %d\nwarm:  %s\nfresh: %s",
				req, shape, priority, gotStatus, wantStatus, got, want)
		}
		if wantStatus != http.StatusOK {
			if !bytes.Equal(got, want) {
				t.Fatalf("request %d (%s, priority %q): error texts differ\nwarm:  %s\nfresh: %s",
					req, shape, priority, got, want)
			}
			continue
		}
		gotLines, wantLines := canonNDJSON(got), canonNDJSON(want)
		if len(gotLines) != len(raws)+1 || strings.Join(gotLines, "\n") != strings.Join(wantLines, "\n") {
			t.Fatalf("request %d (%s, priority %q): NDJSON differs\nwarm:\n%s\nfresh:\n%s",
				req, shape, priority, strings.Join(gotLines, "\n"), strings.Join(wantLines, "\n"))
		}
	}
	for _, must := range []string{"single/200", "batch25/200", "batch25/400", "overflow/429"} {
		if outcomes[must] == 0 {
			t.Errorf("the stream never produced a %s response: %v", must, outcomes)
		}
	}
	if d := warm.Engine().Simulated(); d != 0 {
		t.Errorf("warm daemon simulated %d jobs over a pre-filled cache", d)
	}
	variants := 0
	for _, g := range groups {
		variants += len(g)
	}
	if len(warm.memo) == 0 || len(warm.memo) > variants+len(broken) {
		t.Errorf("warm memo holds %d jobs, want between 1 and the %d distinct encodings sent", len(warm.memo), variants)
	}
	if hits, misses := mMemoHits.Value()-hits0, mMemoMisses.Value()-misses0; hits <= misses {
		t.Errorf("memo hits %d, misses %d over the stream: the warm daemon's repeats are not hitting", hits, misses)
	}
}

// TestReencodedJobMissesMemoSameKey: the memo is keyed by bytes, the
// result cache by meaning. The same job with its members re-ordered and
// re-indented is a memo miss that lands on the same cache key and the
// byte-identical result.
func TestReencodedJobMissesMemoSameKey(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 1, CacheDir: t.TempDir()})
	j := quickJob(t, "PRO")
	canonical := encodeWire(t, &j, nil)
	var members map[string]json.RawMessage
	if err := json.Unmarshal(canonical, &members); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(members) // map keys marshal sorted: cost before launch
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, sorted, "", "\t"); err != nil {
		t.Fatal(err)
	}
	reencoded := json.RawMessage(indented.Bytes())
	if bytes.Equal(reencoded, canonical) {
		t.Fatal("re-encoding left the bytes unchanged; the test would prove nothing")
	}

	a, err := d.decodeJob(canonical)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.decodeJob(reencoded)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || len(d.memo) != 2 {
		t.Fatalf("another encoding hit the memo (same entry: %v, %d entries)", a == b, len(d.memo))
	}
	if a.key == "" || a.key != b.key || a.keyErr != nil || b.keyErr != nil {
		t.Fatalf("keys differ across encodings: %q (%v) vs %q (%v)", a.key, a.keyErr, b.key, b.keyErr)
	}
	if again, _ := d.decodeJob(canonical); again != a {
		t.Fatal("the same bytes missed the memo")
	}

	var results [2][]byte
	for i, raw := range []json.RawMessage{canonical, reencoded} {
		status, body := postBatch(t, c.base, rawBatch(t, []json.RawMessage{raw}, ""))
		if status != http.StatusOK {
			t.Fatalf("encoding %d: status %d: %s", i, status, body)
		}
		lines := canonNDJSON(body)
		results[i] = []byte(lines[len(lines)-1])
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("batch lines differ across encodings:\n%s\n%s", results[0], results[1])
	}
	if got := d.Engine().Simulated(); got != 1 {
		t.Fatalf("two encodings of one job simulated %d times, want 1 (second is a cache hit)", got)
	}
}

// TestMemoisedFactoryJobResimulates: a parameterised spec resolves to a
// factory once, at decode, and the memo hands the same factory to every
// later request. That is sound only because a factory is a stateless
// constructor — each run builds its own scheduler. A daemon without a
// cache simulates the memoised job twice and must get the same answer.
func TestMemoisedFactoryJobResimulates(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 1})
	j := quickJob(t, "PRO")
	body := rawBatch(t, []json.RawMessage{encodeWire(t, &j, func(wj *WireJob) { wj.Scheduler = "PRO+threshold=500" })}, "")
	hits0 := mMemoHits.Value()
	var results [2]string
	for i := range results {
		status, out := postBatch(t, c.base, body)
		if status != http.StatusOK || bytes.Contains(out, []byte(`"err"`)) {
			t.Fatalf("run %d: status %d: %s", i, status, out)
		}
		lines := canonNDJSON(out)
		results[i] = lines[len(lines)-1]
	}
	if results[0] != results[1] {
		t.Fatalf("a memoised factory job simulated to different results:\n%s\n%s", results[0], results[1])
	}
	if got := d.Engine().Simulated(); got != 2 {
		t.Fatalf("cacheless daemon simulated %d times for 2 requests", got)
	}
	if got := mMemoHits.Value() - hits0; got != 1 {
		t.Fatalf("second request hit the memo %d times, want 1", got)
	}
}

// TestBatchWireFormatPinned pins /v1/batch's response bytes across the
// warm-path change, so an old client keeps reading a new daemon: a
// 3-job batch — a plain policy, a parameterised spec, an unknown
// scheduler — sent cold and then warm must produce, time fields aside,
// the lines the commit before the memo produced (testdata/batch3.ndjson,
// generated there with -update).
func TestBatchWireFormatPinned(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 2, CacheDir: t.TempDir()})
	j := quickJob(t, "LRR")
	body := rawBatch(t, []json.RawMessage{
		encodeWire(t, &j, nil),
		encodeWire(t, &j, func(wj *WireJob) { wj.Scheduler = "PRO+threshold=500" }),
		encodeWire(t, &j, func(wj *WireJob) { wj.Scheduler = "NOPE"; wj.Kernel = "mislabelled" }),
	}, PriorityBulk)
	var got []string
	for _, phase := range []string{"cold", "warm"} {
		status, out := postBatch(t, c.base, body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", phase, status, out)
		}
		got = append(got, canonNDJSON(out)...)
	}
	golden := filepath.Join("testdata", "batch3.ndjson")
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Fatalf("/v1/batch response changed on the wire\ngot:\n%swant:\n%s", text, want)
	}
}

// BenchmarkServeWarm is the serving rung of the measurement ladder: an
// in-process daemon on a unix socket over a pre-filled 100-entry cache
// (the paper grid at -maxtbs 8, as bench's serve_warm), one closed-loop
// client. It reports host time and heap allocations per job, client and
// server together; `make profile-serve` profiles it.
func BenchmarkServeWarm(b *testing.B) {
	grid := jobs.Grid(workloads.All(), []string{"TL", "LRR", "GTO", "PRO"}, 8, gpu.Options{})
	cache := b.TempDir()
	eng, err := jobs.New(0, cache, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), grid); err != nil {
		b.Fatal(err)
	}
	d, err := New(Config{CacheDir: cache})
	if err != nil {
		b.Fatal(err)
	}
	sock, err := os.MkdirTemp("", "psd") // unix socket paths are short
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(sock)
	addr := "unix:" + filepath.Join(sock, "d.sock")
	l, err := Listen(addr)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve(l) }()
	defer func() {
		if err := d.Shutdown(); err != nil {
			b.Error(err)
		}
		<-done
	}()
	c := NewClient(addr)

	for _, size := range []int{1, 25} {
		name := "single"
		if size > 1 {
			name = fmt.Sprintf("batch%d", size)
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			batch := make([]jobs.Job, size)
			request := func() {
				for k, gi := range rng.Perm(len(grid))[:size] {
					batch[k] = grid[gi]
				}
				if _, err := c.Run(context.Background(), batch); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 100/size+1; i++ { // fill memo, front and connection
				request()
			}
			simulated := d.Engine().Simulated()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				request()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			njobs := float64(b.N * size)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/njobs, "ns/job")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/njobs, "allocs/job")
			if got := d.Engine().Simulated() - simulated; got != 0 {
				b.Fatalf("daemon simulated %d jobs while serving a warm cache", got)
			}
		})
	}
}
