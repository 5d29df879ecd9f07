package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary double as prosim: with the helper env
// var set it runs main() on os.Args, so the tests below observe real
// exit codes and the stdout/stderr split.
func TestMain(m *testing.M) {
	if os.Getenv("PROSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runProsim re-executes the test binary as prosim with args.
func runProsim(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	// A race-enabled binary sleeps 1 s at exit by default; this test
	// starts a dozen of them.
	cmd.Env = append(os.Environ(), "PROSIM_TEST_MAIN=1",
		"GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// progressLine matches jobs.PrintProgress output.
var progressLine = regexp.MustCompile(`^\[ *[0-9.]+s\] +[0-9]+/[0-9]+ `)

// TestSubcommandsPrintTheirArtifacts runs every subcommand, and plain
// prosim, on 2-TB grids: each exits 0 with its artifact header on
// stdout and no progress line there. speedup and stalls share a cache,
// so stalls replays speedup's suite.
func TestSubcommandsPrintTheirArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	cache := filepath.Join(t.TempDir(), "cache")
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"speedup"}, []string{"Fig. 4"}},
		{[]string{"stalls"}, []string{"Fig. 1", "Table III", "Fig. 5"}},
		{[]string{"timeline", "-quiet=false"}, []string{"Fig. 2", "on SM 0"}},
		{[]string{"timeline", "-sm", "3"}, []string{"on SM 3"}},
		{[]string{"tborder"}, []string{"Table IV"}},
		{[]string{"trace"}, []string{"cycle,ipc,issued,idle,scoreboard,pipeline,resident_tbs,pending_tbs\n"}},
		{[]string{"-kernel", "scalarProdGPU"}, []string{"KERNEL", "scalarProdGPU"}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			stdout, stderr, err := runProsim(t, append(tc.args, "-maxtbs", "2", "-cache", cache)...)
			if err != nil {
				t.Fatalf("exit: %v\nstderr:\n%s", err, stderr)
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout misses %q:\n%s", want, stdout)
				}
			}
			for i, line := range strings.Split(stdout, "\n") {
				if progressLine.MatchString(line) {
					t.Errorf("stdout line %d is a progress line: %q", i+1, line)
				}
			}
		})
	}
}

// TestSubcommandRejections pins the argument checks that run before
// any simulation: each exits non-zero with nothing on stdout.
func TestSubcommandRejections(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"fig4"}, "want speedup, stalls, timeline, tborder, trace, report, papercheck, sweep or flight"},
		{[]string{"timeline", "-sm", "14"}, "-sm 14"},
		{[]string{"timeline", "-sm", "-1"}, "-sm -1"},
		{[]string{"trace", "-every", "0"}, "-every"},
		{[]string{"trace", "-every", "-5"}, "-every"},
		{[]string{"tborder", "-jobs", "2"}, "flag provided but not defined: -jobs"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			stdout, stderr, err := runProsim(t, append(tc.args, "-maxtbs", "2")...)
			if err == nil {
				t.Fatal("exited 0")
			}
			if stdout != "" {
				t.Errorf("stdout not empty:\n%s", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not say %q", stderr, tc.want)
			}
		})
	}
}
