package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/jobs"
	"repro/internal/jobs/jobstest"
	"repro/internal/workloads"
)

// TestMain lets the test binary double as the daemon: when the helper
// env var is set, it runs main() with the flags in os.Args — the
// SIGTERM test re-execs itself this way so it can signal a real
// process.
func TestMain(m *testing.M) {
	if os.Getenv("PROSIMD_TEST_DAEMON") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startDaemon re-execs the test binary as a prosimd on a unix socket
// and waits for it to accept connections.
func startDaemon(t *testing.T, sock string, extra ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-listen", "unix:" + sock}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "PROSIMD_TEST_DAEMON=1")
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("daemon stderr:\n%s", logs.String())
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(sock); err == nil {
			if _, err := daemon.Dial("unix:" + sock); err == nil {
				return cmd
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon did not come up")
	return nil
}

func TestSIGTERMDrainsAndExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	sock := filepath.Join(t.TempDir(), "d.sock")
	cmd := startDaemon(t, sock, "-jobs", "2", "-drain", "2m")

	c, err := daemon.Dial("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	// Long enough to be caught in flight by the poll below, short enough
	// to drain. The daemon is this test binary re-executed, so a job
	// sized in-process is sized for it too.
	job := jobstest.SlowJob(250 * time.Millisecond)
	type out struct {
		cycles int64
		err    error
	}
	got := make(chan out, 1)
	go func() {
		rs, err := c.Run(context.Background(), []jobs.Job{job})
		if err != nil {
			got <- out{err: err}
			return
		}
		got <- out{cycles: rs[0].Cycles}
	}()

	// Wait until the daemon reports the job in flight, then TERM it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats(context.Background())
		if err == nil && st.InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached the engine")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The busy daemon must finish the running batch and exit 0.
	o := <-got
	if o.err != nil {
		t.Fatalf("in-flight batch aborted by SIGTERM: %v", o.err)
	}
	if o.cycles <= 0 {
		t.Fatal("drained batch lost its result")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after graceful drain: %v", err)
	}

	// The socket is gone for good: a fresh dial must fail.
	if _, err := daemon.Dial("unix:" + sock); err == nil {
		t.Fatal("daemon still serving after SIGTERM")
	}
}

func TestDaemonServesBatchOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	sock := filepath.Join(t.TempDir(), "d.sock")
	cache := filepath.Join(t.TempDir(), "cache")
	startDaemon(t, sock, "-jobs", "2", "-cache", cache, "-quiet")

	c, err := daemon.Dial("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	js := []jobs.Job{{Launch: w.Shrunk(8).Launch, Kernel: w.Kernel, Scheduler: "PRO"}}
	cold, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(cold[0])
	b, _ := json.Marshal(warm[0])
	if !bytes.Equal(a, b) {
		t.Fatal("warm result differs from cold")
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulated != 1 || st.Replayed != 1 {
		t.Fatalf("cache did not persist across batches: %+v", st)
	}
}

// TestNDJSONStreamReadableLineByLine drives the raw protocol through a
// real daemon process: every line before the terminator must be a
// complete JSON object even when read eagerly.
func TestNDJSONStreamReadableLineByLine(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	sock := filepath.Join(t.TempDir(), "d.sock")
	startDaemon(t, sock, "-jobs", "2", "-quiet")

	w, err := workloads.ByKernel("aesEncrypt128")
	if err != nil {
		t.Fatal(err)
	}
	var req daemon.BatchRequest
	for _, sched := range []string{"LRR", "PRO"} {
		req.Jobs = append(req.Jobs, daemon.WireJob{
			Launch:    w.Shrunk(8).Launch,
			Kernel:    w.Kernel,
			Scheduler: sched,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (conn net.Conn, err error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
	}}
	resp, err := hc.Post("http://prosimd/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lines int
	var sawBatch bool
	for sc.Scan() {
		lines++
		var ev daemon.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines, err)
		}
		if ev.Type == "batch" {
			sawBatch = true
			if len(ev.Results) != len(req.Jobs) {
				t.Fatalf("batch line has %d results, want %d", len(ev.Results), len(req.Jobs))
			}
		} else if sawBatch {
			t.Fatal("job event after the batch terminator")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawBatch {
		t.Fatal("stream ended without a batch line")
	}
	if lines != len(req.Jobs)+1 {
		t.Fatalf("%d lines for %d jobs", lines, len(req.Jobs))
	}
	if strings.TrimSpace(resp.Header.Get("Content-Type")) != "application/x-ndjson" {
		t.Fatalf("content type %q", resp.Header.Get("Content-Type"))
	}
}

// TestRemovedFlagsAreFlagErrors: the tenancy, shared-cache-tier,
// job-tracer and interactive-weight flags are gone, so each is a flag
// error (exit 2) before the daemon listens.
func TestRemovedFlagsAreFlagErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-tokens-file", "tenants.json"},
		{"-cache-remote", "http://127.0.0.1:1/cache"},
		{"-cache-remote-timeout", "1s"},
		{"-serve-cache"},
		{"-trace-out", "jobs.ndjson"},
		{"-interactive-weight", "4"},
	} {
		cmd := exec.Command(exe, append(args, "-listen", "unix:"+filepath.Join(t.TempDir(), "d.sock"))...)
		cmd.Env = append(os.Environ(), "PROSIMD_TEST_DAEMON=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("prosimd %s: err %v, want exit 2\n%s", args[0], err, out)
			continue
		}
		if !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
			t.Errorf("prosimd %s: output does not name the flag:\n%s", args[0], out)
		}
	}
}
