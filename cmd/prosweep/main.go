// Command prosweep fans the paper's evaluation grid out across a
// cluster of prosimd workers: a coordinator with per-worker queues,
// work-stealing, health checks, and retry-on-worker-loss, plus a merge
// pass that assembles the suite from the shared result cache — so an
// interrupted sweep resumes for free, and a finished sweep re-runs
// without a single simulation.
//
// Usage:
//
//	prosweep -workers 127.0.0.1:9753,127.0.0.1:9754 -cache .simcache
//	prosweep -workers-file workers.txt -maxtbs 100
//	prosweep -workers unix:/tmp/w1.sock,unix:/tmp/w2.sock -out results
//
// Workers are prosimd instances (see cmd/prosimd); point them all at
// the same -cache directory as this coordinator to get merge-from-cache
// resumption. The suite tables go to stdout; progress, retry logs and
// the per-worker dispatch summary go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func main() {
	workersFlag := flag.String("workers", "", "comma-separated prosimd addresses (host:port or unix:/path)")
	workersFile := flag.String("workers-file", "", "file with one prosimd address per line (# comments allowed)")
	cacheDir := flag.String("cache", "", "shared result-cache directory: merge-first assembly and free resume (point the workers at the same directory)")
	scheds := flag.String("schedulers", "TL,LRR,GTO,PRO", "comma-separated schedulers to sweep")
	maxTBs := flag.Int("maxtbs", 0, "shrink grids to at most this many TBs (0 = full)")
	outDir := flag.String("out", "", "directory to write fig4.txt and table3.txt into (optional)")
	slots := flag.Int("slots", 0, "concurrent jobs per worker (0 = ask each worker via /v1/health)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-attempt wall-clock cap; an over-budget attempt is retried elsewhere (0 = none)")
	retries := flag.Int("retries", 3, "dispatch attempts per job before the batch fails")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "delay before the first retry (doubles per attempt)")
	maxBackoff := flag.Duration("max-backoff", 5*time.Second, "retry-delay cap")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "worker health-check cadence")
	priority := flag.String("priority", "bulk", "scheduling class on the workers: bulk yields slots to interactive clients")
	quiet := flag.Bool("quiet", false, "suppress per-job progress")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	log, err := logCfg.Setup()
	if err != nil {
		fatal(err)
	}
	if err := daemon.CheckPriority(*priority); err != nil {
		fatal(err)
	}

	addrs, err := workerList(*workersFlag, *workersFile)
	if err != nil {
		fatal(err)
	}
	coord, err := cluster.New(cluster.Config{
		Workers:        addrs,
		SlotsPerWorker: *slots,
		CacheDir:       *cacheDir,
		JobTimeout:     *jobTimeout,
		MaxAttempts:    *retries,
		BaseBackoff:    *backoff,
		MaxBackoff:     *maxBackoff,
		HealthInterval: *healthEvery,
		Priority:       *priority,
		Log:            log,
	})
	if err != nil {
		fatal(err)
	}
	defer coord.Close()
	if !*quiet {
		coord.OnProgress = jobs.PrintProgress(os.Stderr)
	}

	start := time.Now()
	suite, err := experiments.RunSuite(workloads.All(),
		splitList(*scheds), *maxTBs, coord)
	if err != nil {
		fatal(err)
	}

	emit := func(name, content string) {
		fmt.Println(content)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(filepath.Join(*outDir, name), []byte(content), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	emit("fig4.txt", experiments.FormatFig4(suite.ComputeFig4()))
	emit("table3.txt", experiments.FormatTable3(suite.ComputeTable3()))

	st := coord.Snapshot()
	fmt.Fprintf(os.Stderr,
		"prosweep completed in %.1fs (merged from cache: %d, retries: %d, steals: %d, workers lost: %d)\n",
		time.Since(start).Seconds(), st.MergeHits, st.Retries, st.Steals, st.WorkersLost)
	for _, w := range st.Workers {
		state := "up"
		if w.Down {
			state = "down"
		}
		fmt.Fprintf(os.Stderr, "  worker %-30s %-4s slots=%d dispatched=%d stolen=%d\n",
			w.Addr, state, w.Slots, w.Dispatched, w.Stolen)
	}
}

// workerList resolves the -workers / -workers-file flags into a
// non-empty address list.
func workerList(inline, file string) ([]string, error) {
	addrs := splitList(inline)
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			addrs = append(addrs, line)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no workers: pass -workers or -workers-file")
	}
	return addrs, nil
}

// splitList splits a comma-separated flag, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prosweep:", err)
	os.Exit(1)
}
