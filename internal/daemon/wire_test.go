package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/config"
	"repro/internal/jobs"
)

// withMember returns the encoded wire job raw plus member, a field an
// older client sent.
func withMember(raw []byte, member string) []byte {
	return append(append([]byte{}, raw[:len(raw)-1]...), ","+member+"}"...)
}

// TestWireJobLegacySMWorkersIgnored: the "smWorkers" wire field went
// away with the parallel tick, and "cost", which the daemon never read,
// after it, but clients built before that still send them. Such a job
// must decode, key identically to the same job without the field, and
// run to the same result through /v1/batch.
func TestWireJobLegacySMWorkersIgnored(t *testing.T) {
	for _, tc := range []struct{ field, member string }{
		{"smWorkers", `"smWorkers":4`},
		{"cost", `"cost":3276800`},
	} {
		t.Run(tc.field, func(t *testing.T) { legacyFieldIgnored(t, tc.member) })
	}
}

func legacyFieldIgnored(t *testing.T, member string) {
	js := quickBatch(t)[:2]
	eng := &jobs.Engine{}
	var legacyJobs []json.RawMessage
	for i := range js {
		wj, err := FromJob(&js[i])
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(wj)
		if err != nil {
			t.Fatal(err)
		}
		legacy := withMember(data, member)
		legacyJobs = append(legacyJobs, legacy)

		var back WireJob
		if err := json.Unmarshal(legacy, &back); err != nil {
			t.Fatalf("legacy payload does not decode: %v", err)
		}
		rj, err := back.Job()
		if err != nil {
			t.Fatal(err)
		}
		want, ok, err := eng.Key(&js[i])
		if err != nil || !ok {
			t.Fatalf("job %d: local key: %v ok=%v", i, err, ok)
		}
		got, ok, err := eng.Key(&rj)
		if err != nil || !ok {
			t.Fatalf("job %d: legacy key: %v ok=%v", i, err, ok)
		}
		if got != want {
			t.Fatalf("job %d: %s changed the cache key\nwithout %s\nwith    %s", i, member, want, got)
		}
	}

	_, c := newTestDaemon(t, Config{Workers: 2})
	want, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"jobs": legacyJobs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("legacy batch: %s: %s", resp.Status, msg)
	}
	var batch Event
	for dec := json.NewDecoder(resp.Body); batch.Type != "batch"; {
		batch = Event{}
		if err := dec.Decode(&batch); err != nil {
			t.Fatalf("legacy batch stream ended before its batch line: %v", err)
		}
	}
	if len(batch.Results) != len(js) {
		t.Fatalf("legacy batch returned %d results for %d jobs", len(batch.Results), len(js))
	}
	for i, jr := range batch.Results {
		if jr.Err != "" {
			t.Fatalf("legacy job %d failed: %s", i, jr.Err)
		}
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(jr.Result)
		if !bytes.Equal(a, b) {
			t.Fatalf("legacy job %d: result differs from the same job without %s", i, member)
		}
	}
}

// withJobPriority returns the encoded wire job raw plus the job-level
// "priority" member clients sent before classes became per batch.
func withJobPriority(raw []byte, priority string) []byte {
	return withMember(raw, `"priority":"`+priority+`"`)
}

// TestWireJobLegacyPriorityIgnored: a job's own "priority" went away with
// per-job classes, but older clients may still send it. Such a job keys
// as the same job without the field, runs to the same result, and is
// admitted to the one queue like any job: two of them overflow a
// one-deep queue.
func TestWireJobLegacyPriorityIgnored(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1, MaxBatchJobs: 2})
	j := quickJob(t, "PRO")
	plain := encodeWire(t, &j, nil)
	legacy := withJobPriority(plain, "bulk")
	a, err := d.decodeJob(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.decodeJob(legacy)
	if err != nil {
		t.Fatalf("legacy payload does not decode: %v", err)
	}
	if a.keyErr != nil || b.keyErr != nil || a.key != b.key {
		t.Fatalf("a job-level priority changed the cache key\nwithout %s (%v)\nwith    %s (%v)", a.key, a.keyErr, b.key, b.keyErr)
	}

	status, body := postBatch(t, c.base, rawBatch(t, []json.RawMessage{legacy, legacy}, ""))
	if status != http.StatusTooManyRequests || !bytes.Contains(body, []byte("queue is full")) {
		t.Fatalf("two legacy bulk jobs against a one-deep queue: %d %s, want 429", status, body)
	}

	want, err := c.Run(context.Background(), []jobs.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	status, body = postBatch(t, c.base, rawBatch(t, []json.RawMessage{legacy}, ""))
	if status != http.StatusOK {
		t.Fatalf("legacy batch: %d %s", status, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var batch Event
	if err := json.Unmarshal(lines[len(lines)-1], &batch); err != nil || len(batch.Results) != 1 || batch.Results[0].Err != "" {
		t.Fatalf("legacy batch line %s: %v", lines[len(lines)-1], err)
	}
	wantBytes, _ := json.Marshal(want[0])
	gotBytes, _ := json.Marshal(batch.Results[0].Result)
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("legacy job's result differs from the same job without a priority")
	}
}

// FuzzWireJobToJob feeds arbitrary bytes through the daemon's job
// decoder: json.Unmarshal into a WireJob, then Job(). Either step may
// fail; a job that comes out must survive the validation RunContext
// performs first (Config.Validate, then Launch.Validate) with an error
// or nil — never a panic. The same bytes also go through decodeJob, the
// memoising path /v1/batch takes, twice — a miss, then usually a hit —
// and it must accept exactly what the plain decode accepts, with the
// same scheduler and label. `make fuzz` runs it for 10 s; the seeds run
// under plain `go test`.
func FuzzWireJobToJob(f *testing.F) {
	js := quickBatch(f)
	modern, err := FromJob(&js[0])
	if err != nil {
		f.Fatal(err)
	}
	seed := func(wj WireJob) []byte {
		data, err := json.Marshal(wj)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seed(modern))
	f.Add(withMember(seed(modern), `"smWorkers":4`))
	f.Add(withMember(seed(modern), `"cost":7`))
	f.Add(withJobPriority(seed(modern), "urgent"))
	composed := modern
	composed.Scheduler = "PRO+threshold=500"
	f.Add(seed(composed))
	f.Add([]byte(`{"scheduler":"PRO"}`))
	f.Add([]byte(`{"launch":7}`))
	wide := modern
	wide.Config = config.GTX480()
	wide.Config.SharedBanks = 128 // more than BankPasses counts: Validate refuses it
	f.Add(bytes.Replace(seed(wide), []byte(`"SharedBanks"`), []byte(`"sharedBanks"`), 1))
	d, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var wj WireJob
		err := json.Unmarshal(data, &wj)
		var j jobs.Job
		if err == nil {
			j, err = wj.Job()
		}
		for pass := 0; pass < 2; pass++ {
			mj, derr := d.decodeJob(data)
			if (derr == nil) != (err == nil) {
				t.Fatalf("pass %d: decodeJob says %v, Unmarshal+Job() says %v", pass, derr, err)
			}
			if derr == nil && (mj.job.SchedLabel() != j.SchedLabel() || mj.job.Label() != j.Label()) {
				t.Fatalf("pass %d: decodeJob returned %s/%s, the plain decode %s/%s",
					pass, mj.job.Label(), mj.job.SchedLabel(), j.Label(), j.SchedLabel())
			}
		}
		if err != nil {
			return
		}
		cfg := j.Config
		if cfg == nil {
			cfg = config.GTX480()
		}
		if cfg.Validate() == nil {
			_ = j.Launch.Validate(cfg) // the verdict is free; a panic is the bug
		}
	})
}
