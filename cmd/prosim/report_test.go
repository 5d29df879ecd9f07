package main

import (
	"errors"
	"net/http/httptest"
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
// coordinator (-workers) against an in-process daemon: every artifact
// and the completion line must come out and the process must exit 0 —
// the coordinator path has no local engine to take job counts from.
func TestWorkersRunExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	d, err := daemon.New(daemon.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	stdout, stderr, err := runReport(t, "-workers", srv.URL, "-maxtbs", "2", "-quiet")
	if err != nil {
		t.Fatalf("report -workers failed: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "Table IV") {
		t.Errorf("stdout misses the last artifact (Table IV):\n%s", stdout)
	}
	if !strings.Contains(stderr, "report completed in") {
		t.Errorf("no completion line on stderr:\n%s", stderr)
	}
}

// TestBadCacheGCFailsFast pins that -cache-gc is validated before any
// simulation: a malformed size, or a local run with nowhere to collect,
// exits non-zero with nothing on stdout.
func TestBadCacheGCFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	cache := filepath.Join(t.TempDir(), "cache")
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"bad size", "invalid size", []string{"-cache", cache, "-cache-gc", "12Q"}},
		{"no cache", "-cache-gc needs -cache", []string{"-cache-gc", "1M"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := runReport(t, append(tc.args, "-maxtbs", "2")...)
			if err == nil {
				t.Fatal("report accepted the -cache-gc value")
			}
			if stdout != "" {
				t.Errorf("report simulated before rejecting -cache-gc; stdout:\n%s", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not say %q", stderr, tc.want)
			}
		})
	}
}

// TestBadPriorityFailsFast pins that -priority is validated before any
// simulation, on the local path too, and that the removed -token and
// -trace-out are flag errors: each exits non-zero (1, or 2 for a flag
// error) with nothing on stdout instead of running the grid.
func TestBadPriorityFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	for _, tc := range []struct {
		flag, value, want string
		code              int
	}{
		{"-priority", "bogus", `unknown priority "bogus"`, 1},
		{"-token", "x", "flag provided but not defined: -token", 2},
		{"-trace-out", "jobs.ndjson", "flag provided but not defined: -trace-out", 2},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			stdout, stderr, err := runReport(t, "-maxtbs", "1", tc.flag, tc.value)
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != tc.code {
				t.Fatalf("report %s %s: err %v, want exit %d", tc.flag, tc.value, err, tc.code)
			}
			if stdout != "" {
				t.Errorf("report simulated before rejecting %s; stdout:\n%s", tc.flag, stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not say %q", stderr, tc.want)
			}
		})
	}
}
