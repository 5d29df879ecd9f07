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

// withLegacySMWorkers re-encodes wj the way a pre-PR-13 client did when
// run with -sm-workers N: the same object plus an "smWorkers" member.
func withLegacySMWorkers(t testing.TB, wj WireJob, n int) []byte {
	t.Helper()
	data, err := json.Marshal(wj)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	obj["smWorkers"], _ = json.Marshal(n)
	out, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWireJobLegacySMWorkersIgnored: the "smWorkers" wire field went
// away with the parallel tick, but clients built before that still send
// it. Such a job must decode, key identically to the same job without
// the field, and run to the same result through /v1/batch.
func TestWireJobLegacySMWorkersIgnored(t *testing.T) {
	js := quickBatch(t)[:2]
	eng := &jobs.Engine{}
	var legacyJobs []json.RawMessage
	for i := range js {
		wj, err := FromJob(&js[i])
		if err != nil {
			t.Fatal(err)
		}
		legacy := withLegacySMWorkers(t, wj, 4)
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
			t.Fatalf("job %d: smWorkers changed the cache key\nwithout %s\nwith    %s", i, want, got)
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
			t.Fatalf("legacy job %d: result differs from the same job without smWorkers", i)
		}
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
	f.Add(withLegacySMWorkers(f, modern, 4))
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
			if derr == nil && (mj.job.SchedLabel() != j.SchedLabel() || mj.job.Label() != j.Label() || mj.priority != wj.Priority) {
				t.Fatalf("pass %d: decodeJob returned %s/%s priority %q, the plain decode %s/%s priority %q",
					pass, mj.job.Label(), mj.job.SchedLabel(), mj.priority, j.Label(), j.SchedLabel(), wj.Priority)
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
