package main

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/daemon"
)

// runReport re-executes the test binary as `prosim report` with args and
// returns what it wrote to stdout and stderr.
func runReport(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	return runProsim(t, append([]string{"report"}, args...)...)
}

// TestStdoutCarriesOnlyArtifacts pins the tool's stream contract:
// stdout is exclusively the paper artifacts (safe to redirect into a
// file or diff), while progress, ETA and timing lines go to stderr.
// A regression here corrupts every scripted `report > results.txt`.
func TestStdoutCarriesOnlyArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	cache := filepath.Join(t.TempDir(), "cache")
	stdout, stderr, err := runReport(t, "-maxtbs", "2", "-cache", cache)
	if err != nil {
		t.Fatalf("report failed: %v\nstderr:\n%s", err, stderr)
	}

	for i, line := range strings.Split(stdout, "\n") {
		if progressLine.MatchString(line) {
			t.Errorf("stdout line %d is a progress line: %q", i+1, line)
		}
		if strings.Contains(line, "report completed in") {
			t.Errorf("stdout line %d is a timing line: %q", i+1, line)
		}
	}
	for _, artifact := range []string{
		"Fig. 4 — Speedup of PRO over baseline schedulers",
		"Table III — Improvement in stall cycles with PRO",
	} {
		if !strings.Contains(stdout, artifact) {
			t.Errorf("stdout missing artifact %q", artifact)
		}
	}

	var sawProgress, sawTiming bool
	for _, line := range strings.Split(stderr, "\n") {
		if progressLine.MatchString(line) {
			sawProgress = true
		}
		if strings.Contains(line, "report completed in") {
			sawTiming = true
		}
	}
	if !sawProgress {
		t.Error("no progress lines on stderr (progress reporting broke)")
	}
	if !sawTiming {
		t.Error("no completion timing line on stderr")
	}
}

// TestWorkersRunExitsZero runs the report through the cluster
// coordinator (-workers) against two in-process daemons that share the
// -cache directory: the process must exit 0 with the completion line,
// and stdout must be byte-identical to a local run's — the coordinator
// path has no local engine to take job counts from, and the cluster CLI
// is this path.
func TestWorkersRunExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	cache := filepath.Join(t.TempDir(), "cache")
	var addrs []string
	for i := 0; i < 2; i++ {
		d, err := daemon.New(daemon.Config{Workers: 2, CacheDir: cache})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(d.Handler())
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.URL)
	}
	stdout, stderr, err := runReport(t, "-workers", strings.Join(addrs, ","), "-cache", cache, "-maxtbs", "2", "-quiet")
	if err != nil {
		t.Fatalf("report -workers failed: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "Table IV") {
		t.Errorf("stdout misses the last artifact (Table IV):\n%s", stdout)
	}
	if !strings.Contains(stderr, "report completed in") {
		t.Errorf("no completion line on stderr:\n%s", stderr)
	}
	local, stderr, err := runReport(t, "-maxtbs", "2", "-quiet")
	if err != nil {
		t.Fatalf("local report failed: %v\nstderr:\n%s", err, stderr)
	}
	if stdout != local {
		t.Errorf("report -workers stdout differs from the local run's:\n%s\n--- local:\n%s", stdout, local)
	}
}

// TestBadCacheGCFailsFast pins that -cache-gc, removed with the cache's
// collector, is a flag error on each of the four tools that declared it:
// whatever its value, and with or without -cache, the tool exits 2 with
// nothing on stdout, simulates nothing and leaves an existing -cache
// directory's entries as they were.
func TestBadCacheGCFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	cache := filepath.Join(t.TempDir(), "cache")
	if _, stderr, err := runProsim(t, "-kernel", "scalarProdGPU", "-sched", "LRR", "-maxtbs", "1", "-cache", cache); err != nil {
		t.Fatalf("filling the cache: %v\nstderr:\n%s", err, stderr)
	}
	entries := func() int {
		t.Helper()
		des, err := os.ReadDir(cache)
		if err != nil {
			t.Fatal(err)
		}
		return len(des)
	}
	want := entries()
	if want != 1 {
		t.Fatalf("one run left %d cache entries, want 1", want)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad size", []string{"-cache", cache, "-cache-gc", "12Q"}},
		{"no cache", []string{"-cache-gc", "1M"}},
		{"valid size", []string{"-cache", cache, "-cache-gc", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tool := range [][]string{{"-kernel", "scalarProdGPU"}, {"report"}, {"sweep"}, {"papercheck"}} {
				args := append(append(tool[:len(tool):len(tool)], "-maxtbs", "1"), tc.args...)
				stdout, stderr, err := runProsim(t, args...)
				var ee *exec.ExitError
				if !errors.As(err, &ee) || ee.ExitCode() != 2 {
					t.Fatalf("%v: err %v, want exit 2\nstderr:\n%s", args, err, stderr)
				}
				if stdout != "" {
					t.Errorf("%v ran before rejecting -cache-gc; stdout:\n%s", args, stdout)
				}
				if want := "flag provided but not defined: -cache-gc"; !strings.Contains(stderr, want) {
					t.Errorf("%v: stderr %q does not say %q", args, stderr, want)
				}
				if strings.Contains(stderr, " simulated, ") {
					t.Errorf("%v simulated before rejecting -cache-gc; stderr:\n%s", args, stderr)
				}
				if got := entries(); got != want {
					t.Errorf("%v left %d cache entries, want %d", args, got, want)
				}
			}
		})
	}
}

// TestBadPriorityFailsFast pins that removed flags fail before anything
// runs: report and sweep -priority (each subcommand sends one fixed
// class), sweep -ablate (sweep -variants prints its PRO and PRO-nobar
// columns and their ratio), trace -flight-out and flight's -warp-sample, -mem-sample,
// -ring-events, -ring-spans and -topn (prosim flight is the one way to
// record, and records everything at fixed ring sizes), and report's
// -token, -trace-out and -shard. Each is a flag error: exit 2, nothing
// on stdout, and an existing -out left as it was. The -out goes before
// the removed flag, so it is parsed first.
func TestBadPriorityFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	for _, tc := range []struct {
		name string
		args []string // subcommand, removed flag, its value
	}{
		{"-priority", []string{"report", "-priority", "bulk"}},
		{"-token", []string{"report", "-token", "x"}},
		{"-trace-out", []string{"report", "-trace-out", "jobs.ndjson"}},
		{"-shard", []string{"report", "-shard", "1/2"}},
		{"sweep -priority", []string{"sweep", "-priority", "interactive"}},
		{"sweep -ablate", []string{"sweep", "-ablate"}},
		{"trace -flight-out", []string{"trace", "-flight-out", "pro.trace.json"}},
		{"flight -warp-sample", []string{"flight", "-warp-sample", "4"}},
		{"flight -mem-sample", []string{"flight", "-mem-sample", "4"}},
		{"flight -ring-events", []string{"flight", "-ring-events", "4096"}},
		{"flight -ring-spans", []string{"flight", "-ring-spans", "4096"}},
		{"flight -topn", []string{"flight", "-topn", "5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub, flag := tc.args[0], tc.args[1]
			args := []string{sub, "-maxtbs", "1"}
			// keep is a file that must keep its bytes: inside report's
			// -out directory, or flight's -out file itself.
			var keep string
			switch sub {
			case "report":
				dir := t.TempDir()
				keep = filepath.Join(dir, "fig4.txt")
				args = append(args, "-out", dir)
			case "flight":
				keep = filepath.Join(t.TempDir(), "keep.out")
				args = append(args, "-out", keep)
			}
			old := []byte("an earlier artifact\n")
			if keep != "" {
				if err := os.WriteFile(keep, old, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			stdout, stderr, err := runProsim(t, append(args, tc.args[1:]...)...)
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("%s %s: err %v, want exit 2\nstderr:\n%s", sub, flag, err, stderr)
			}
			if stdout != "" {
				t.Errorf("%s ran before rejecting %s; stdout:\n%s", sub, flag, stdout)
			}
			if want := "flag provided but not defined: " + flag; !strings.Contains(stderr, want) {
				t.Errorf("stderr %q does not say %q", stderr, want)
			}
			if keep == "" {
				return
			}
			if got, err := os.ReadFile(keep); err != nil || !bytes.Equal(got, old) {
				t.Errorf("-out changed: %q (%v), want %q", got, err, old)
			}
			if entries, err := os.ReadDir(filepath.Dir(keep)); err != nil || len(entries) != 1 {
				t.Errorf("-out's directory holds %d entries (%v), want only the earlier file", len(entries), err)
			}
		})
	}
}
