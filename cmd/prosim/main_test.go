package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
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

// TestSubcommandsPrintTheirArtifacts runs every subcommand but flight
// (flight_test.go) and papercheck, and plain prosim, on small grids:
// each exits 0 with its artifact headers on stdout and no progress line
// there. report is the one way to Figs. 1, 4, 5 and Table III, and
// sweep -variants carries the Sec. IV barrier ablation's ratio column.
func TestSubcommandsPrintTheirArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	cache := filepath.Join(t.TempDir(), "cache")
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"report"}, []string{"Fig. 1", "Fig. 4", "Table III", "Fig. 5"}},
		{[]string{"sweep", "-variants", "-kernel", "scalarProdGPU", "-maxtbs", "16"},
			[]string{"PRO-nobar", "nobar/PRO\n", "scalarProdGPU"}},
		{[]string{"timeline", "-quiet=false"}, []string{"Fig. 2", "on SM 0"}},
		{[]string{"timeline", "-sm", "3"}, []string{"on SM 3"}},
		{[]string{"tborder"}, []string{"Table IV"}},
		{[]string{"trace"}, []string{"cycle,ipc,issued,idle,scoreboard,pipeline,resident_tbs,pending_tbs\n"}},
		{[]string{"-kernel", "scalarProdGPU"}, []string{"KERNEL", "scalarProdGPU"}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			args := tc.args
			if !slices.Contains(args, "-maxtbs") {
				args = append(args, "-maxtbs", "2")
			}
			stdout, stderr, err := runProsim(t, append(args, "-cache", cache)...)
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
// any simulation: each exits with its code (2 for an unknown subcommand
// or flag, 1 for a bad value) and nothing on stdout. speedup and stalls
// are gone: report prints their figures and tables.
func TestSubcommandRejections(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	const subcommands = "want timeline, tborder, trace, report, papercheck, sweep or flight"
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"fig4"}, 2, subcommands},
		{[]string{"speedup"}, 2, subcommands},
		{[]string{"stalls"}, 2, subcommands},
		{[]string{"timeline", "-sm", "14"}, 1, "-sm 14"},
		{[]string{"timeline", "-sm", "-1"}, 1, "-sm -1"},
		{[]string{"trace", "-every", "0"}, 1, "-every"},
		{[]string{"trace", "-every", "-5"}, 1, "-every"},
		{[]string{"tborder", "-jobs", "2"}, 2, "flag provided but not defined: -jobs"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			stdout, stderr, err := runProsim(t, append(tc.args, "-maxtbs", "2")...)
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != tc.code {
				t.Fatalf("err %v, want exit %d\nstderr:\n%s", err, tc.code, stderr)
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
