// Command bench is the repository's benchmark: six workloads that keep
// the simulator's compute-bound and memory-bound paths, its parallel
// tick and its serving read and write paths apart, each reported with
// host-time end-to-end metrics, a reproduction-fidelity figure, and —
// in a traced run — per-layer metrics for every package on the path.
// README.md in this directory is the manual.
//
// Usage (from this directory; `bash bench/run.sh <flags>` does the same
// from the repository root):
//
//	go run . -workload <name> [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	go run . -all [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	go run . -list
//	go run . -compare A.json B.json [-spec ../BENCHMARK.json]
//	go run . -update-golden
//
// The last line of standard output of a workload run is one JSON object
// {"correct","attempted","failed","metrics"}; everything above it is the
// human-readable table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is the measuring budget of one run when -seconds is not
// given; BENCHMARK.json's run_seconds states the same number.
const defaultSeconds = 12

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run (see -list)")
		all      = flag.Bool("all", false, "run every workload, each in its own process")
		list     = flag.Bool("list", false, "print workload and metric names as in BENCHMARK.json")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		update   = flag.Bool("update-golden", false, "re-pin golden.json from a seed-1 run of every workload")
		seed     = flag.Uint64("seed", 1, "input seed; 1 runs the Table II launches as published")
		seconds  = flag.Float64("seconds", defaultSeconds, "measuring budget: passes start while it is not used up")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		traced   = flag.Bool("traced", false, "same as -trace 1")
		out      = flag.String("out", "out", "directory for result and trace files")
		spec     = flag.String("spec", filepath.Join("..", "BENCHMARK.json"), "benchmark contract read by -compare")
	)
	flag.Parse()
	if *traced {
		*trace = 1
	}
	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "bench: -seed must be at least 1")
		return 2
	}

	switch {
	case *list:
		printList(os.Stdout)
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	case *update:
		if err := updateGolden("golden.json"); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *all:
		return runAll(*seed, *seconds, *trace, *out)
	case *workload != "":
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *workload)
			return 2
		}
		res, err := runWorkload(w, runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := res.print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	default:
		flag.Usage()
		return 2
	}
}

// runAll runs every workload in a process of its own (the daemon installs
// a process-wide heartbeat listener and peak RSS is a process high-water
// mark, so workloads must not share one) and merges their result files
// into <out>/results.json, the input of -compare.
func runAll(seed uint64, seconds float64, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	merged := resultFile{Workloads: map[string]*runResult{}}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe,
			"-workload", w.name,
			"-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace),
			"-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
			continue
		}
		one, err := readResultFile(resultPath(out, w.name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		for name, r := range one.Workloads {
			merged.Workloads[name] = r
		}
	}
	if err := writeJSON(filepath.Join(out, "results.json"), merged); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// host describes where a run was measured; it heads every output.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(".."),
	}
}

// gitCommit resolves HEAD of the repository at root by reading .git
// directly (the benchmark starts no processes of its own for this);
// "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
