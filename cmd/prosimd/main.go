// Command prosimd is the long-running simulation daemon: it wraps the
// parallel job engine in an HTTP service (TCP or unix socket), keeps
// the result cache warm across invocations of the cmd/ tools, and
// dedupes identical in-flight work submitted by concurrent clients —
// the second client attaches to the running simulation instead of
// re-simulating.
//
// Endpoints: POST /v1/batch (NDJSON progress stream + results),
// GET /v1/stats, GET /v1/health, GET /metrics (Prometheus text format).
// The result cache has no collector: bound it by deleting -cache's
// directory or any of its entries (a missing entry is recomputed).
// See DESIGN.md §9 for the protocol and §10 for the telemetry.
//
// Usage:
//
//	prosimd -cache .simcache                     # TCP on 127.0.0.1:9753
//	prosimd -listen unix:/tmp/prosimd.sock       # unix socket
//	prosimd -job-timeout 10m -drain 1m
//	prosimd -debug-addr 127.0.0.1:9754           # pprof + /metrics
//	prosimd -log-level debug -log-json           # structured logs (stderr)
//
// Admission (see DESIGN.md §13): every client's jobs share one FIFO
// queue for the -jobs worker slots, and a job whose result is cached
// completes without a slot.
//
//	prosimd -queue-depth 512 -max-batch 256      # admission bounds (429 beyond)
//
// Point the clients at it:
//
//	prosim report -daemon 127.0.0.1:9753
//	prosim sweep -daemon unix:/tmp/prosimd.sock -threshold
//
// SIGINT/SIGTERM drain gracefully: the daemon stops accepting work,
// waits up to -drain for running batches, aborts whatever is left via
// context cancellation, and exits 0 on a clean drain. An aborted job
// gets no result, so a -workers coordinator requeues it elsewhere.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9753",
		"listen address: host:port for TCP or unix:/path/to.sock for a unix socket")
	njobs := flag.Int("jobs", runtime.NumCPU(), "concurrent simulation workers")
	cacheDir := flag.String("cache", "", "result-cache directory (optional; strongly recommended for a daemon)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock cap (0 = none)")
	drain := flag.Duration("drain", daemon.DefaultDrainTimeout,
		"how long a SIGINT/SIGTERM shutdown waits for running jobs before aborting them")
	debugAddr := flag.String("debug-addr", "",
		"serve /debug/pprof and /metrics on this extra address (keep it loopback-only)")
	queueDepth := flag.Int("queue-depth", 0,
		fmt.Sprintf("pending jobs (not yet simulating or done) admitted before batches get 429 (0 = %d)", daemon.DefaultQueueDepth))
	maxBatch := flag.Int("max-batch", 0, "max jobs in one batch request, 413 beyond it (0 = the queue depth)")
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	log, err := logCfg.Setup()
	if err != nil {
		fatal(err)
	}

	cfg := daemon.Config{
		Workers:      *njobs,
		CacheDir:     *cacheDir,
		JobTimeout:   *jobTimeout,
		DrainTimeout: *drain,
		QueueDepth:   *queueDepth,
		MaxBatchJobs: *maxBatch,
		Log:          log,
	}
	d, err := daemon.New(cfg)
	if err != nil {
		fatal(err)
	}
	l, err := daemon.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: obs.DebugHandler(obs.Default)}
		go func() {
			log.Info("debug endpoints up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Error("debug server failed", "err", err)
			}
		}()
		defer dbg.Close()
	}
	cache := *cacheDir
	if cache == "" {
		cache = "(none)"
	}
	log.Info("listening",
		"addr", *listen, "workers", *njobs, "cache", cache, "drain", drain.String())
	start := time.Now()
	if err := d.ServeUntilSignal(l); err != nil {
		fatal(err)
	}
	log.Info("clean shutdown",
		"uptime_sec", fmt.Sprintf("%.1f", time.Since(start).Seconds()),
		"jobs", d.Engine().Completed(),
		"simulated", d.Engine().Simulated(),
		"replayed", d.Engine().Replayed())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prosimd:", err)
	os.Exit(1)
}
