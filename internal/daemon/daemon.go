// Package daemon is the long-running simulation service: an HTTP server
// (TCP or unix socket) wrapping the parallel job engine, so the result
// cache stays warm across invocations of the cmd/ tools and identical
// in-flight work submitted by independent clients is performed once.
//
// Endpoints:
//
//	POST /v1/batch  submit a job batch; the response streams NDJSON
//	                progress events and ends with the results
//	GET  /v1/stats  engine/cache/in-flight counters
//	GET  /v1/health liveness probe (drain flag, in-flight, uptime)
//
// Dedupe semantics (singleflight): every job with a stable identity is
// keyed by its result-cache key. The first submission of a key becomes
// the *leader* and runs the simulation; submissions of the same key
// arriving while it runs *attach* to the leader's run and receive the
// same result without simulating. Runs execute under the daemon's own
// context, not the submitting request's, so a leader's client
// disconnecting mid-run never aborts work that attached followers (or
// the warm cache) still want. With a cache configured, the key dedupes
// across time as well — the leader's Put makes every later submission a
// cache hit.
//
// Shutdown: on Shutdown (cmd/prosimd wires SIGINT/SIGTERM to it) the
// daemon stops accepting connections and drains running batches; jobs
// still running or queued when the drain timeout expires are aborted
// through context cancellation (gpu.RunContext polls it), so even a
// stuck daemon exits within a bounded delay. An aborted job is lost
// work, not a result: its batch ends without a batch line, so the
// client reports it pending and a coordinator requeues it elsewhere.
package daemon

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Daemon telemetry (internal/obs). The HTTP latency series are
// per-endpoint; everything else is process-wide like the jobs_ and
// resultcache_ families.
var (
	mBatches  = obs.NewCounter("prosimd_batches_total", "batch requests accepted")
	mDeduped  = obs.NewCounter("prosimd_dedupe_attached_total", "submissions that attached to another client's identical in-flight run")
	mInflight = obs.NewGauge("prosimd_jobs_inflight", "jobs holding a worker slot")
	mAttached = obs.NewGauge("prosimd_attached_waiting", "submissions currently waiting on a leader's run")
	mDraining = obs.NewGauge("prosimd_draining", "1 while the daemon drains for shutdown")

	mMemoHits   = obs.NewCounter("prosimd_wire_memo_hits_total", "wire jobs whose decoded form and cache key came from the request memo")
	mMemoMisses = obs.NewCounter("prosimd_wire_memo_misses_total", "wire jobs decoded, resolved and keyed from their bytes")

	// prosimd_rejected_total, one series per reason a batch is refused.
	mRejectedDraining  = rejectedCounter("draining")
	mRejectedBodySize  = rejectedCounter("body_size")
	mRejectedBatchSize = rejectedCounter("batch_size")
	mRejectedQueue     = rejectedCounter("queue")
)

func rejectedCounter(reason string) *obs.Counter {
	return obs.NewCounter(obs.Labeled("prosimd_rejected_total", "reason", reason),
		"batch requests refused at admission, by reason")
}

// httpMetrics wraps an endpoint handler with a latency histogram labeled
// by path; its _count is the request count. For /v1/batch the latency is
// the full stream duration — submission to terminal batch line.
func httpMetrics(path string, h http.HandlerFunc) http.Handler {
	lat := obs.NewHistogram(
		obs.Labeled("prosimd_http_request_seconds", "path", path), "HTTP request latency by endpoint", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		lat.Observe(time.Since(start).Seconds())
	})
}

// Config tunes a daemon.
type Config struct {
	// Workers is the number of concurrent simulations; <= 0 means
	// runtime.NumCPU().
	Workers int
	// CacheDir, when non-empty, backs the engine with a result cache.
	CacheDir string
	// JobTimeout caps one job's wall-clock time; 0 means no cap.
	JobTimeout time.Duration
	// Deprecated: SMWorkers configured the removed intra-simulation
	// parallel tick (DESIGN.md §12) and is ignored. The field survives
	// only because bench/, which this tree may not edit, sets it.
	SMWorkers int
	// DrainTimeout bounds how long Shutdown waits for running batches
	// before aborting their jobs; 0 means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// QueueDepth bounds the admitted jobs not yet holding a worker slot
	// or finished; a batch that would overflow the queue is rejected
	// with 429 instead of absorbed. <= 0 means DefaultQueueDepth.
	QueueDepth int
	// MaxBatchJobs caps one batch request's job count (413 beyond it);
	// <= 0 means the queue depth.
	MaxBatchJobs int
	// Log, when non-nil, receives structured lifecycle events (batch
	// accepted/finished, shutdown progress); nil logs nothing.
	Log *slog.Logger
}

// DefaultDrainTimeout is the Shutdown drain bound when Config leaves it
// zero.
const DefaultDrainTimeout = 30 * time.Second

// DefaultQueueDepth is the pending-job bound when Config leaves it
// zero: deep enough for the repo's sweep and report batches
// (tens to a few hundred jobs), shallow enough that a runaway client
// hits 429 long before the daemon's memory does.
const DefaultQueueDepth = 1024

// flight is one in-flight keyed run: the leader fills res/err and
// closes done; followers wait on done.
type flight struct {
	done      chan struct{}
	res       *stats.KernelResult
	fromCache bool
	err       error
}

// Daemon is the simulation service. Create with New, serve with Serve
// (or ServeUntilSignal), stop with Shutdown.
type Daemon struct {
	cfg  Config
	log  *slog.Logger
	eng  *jobs.Engine
	disp *dispatcher

	// baseCtx parents every job execution; baseCancel aborts them all
	// (the drain-timeout hammer).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	inflight map[string]*flight

	// The decoded-request memo (see decodeJob): SHA-256 of a wire job's
	// bytes → its decoded form, bounded by memoBudget summed wire bytes.
	memoMu    sync.Mutex
	memo      map[[sha256.Size]byte]*memoJob
	memoBytes int

	running  atomic.Int64
	attached atomic.Int64
	batches  atomic.Int64
	rejected atomic.Int64
	draining atomic.Bool
	start    time.Time

	server *http.Server
}

// New builds a daemon from cfg.
func New(cfg Config) (*Daemon, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxBatchJobs <= 0 {
		cfg.MaxBatchJobs = cfg.QueueDepth
	}
	eng, err := jobs.New(cfg.Workers, cfg.CacheDir, nil)
	if err != nil {
		return nil, err
	}
	log := cfg.Log
	if log == nil {
		log = obs.Discard()
	}
	d := &Daemon{
		cfg:      cfg,
		log:      log,
		eng:      eng,
		disp:     newDispatcher(cfg.Workers, cfg.QueueDepth),
		inflight: make(map[string]*flight),
		start:    time.Now(),
	}
	d.baseCtx, d.baseCancel = context.WithCancel(context.Background())
	d.server = &http.Server{Handler: d.Handler()}
	return d, nil
}

// Engine exposes the wrapped job engine (tests assert its counters).
func (d *Daemon) Engine() *jobs.Engine { return d.eng }

// Handler returns the daemon's HTTP handler (useful for tests and for
// mounting under an existing server). Every /v1 endpoint carries a
// latency histogram; /metrics serves the process registry in Prometheus
// text format.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/batch", httpMetrics("/v1/batch", d.handleBatch))
	mux.Handle("/v1/stats", httpMetrics("/v1/stats", d.handleStats))
	mux.Handle("/v1/health", httpMetrics("/v1/health", d.handleHealth))
	mux.Handle("/metrics", obs.Default.Handler())
	return mux
}

// Listen opens the daemon transport for addr: "unix:<path>" listens on
// a unix socket, anything else is a TCP host:port. A leftover socket
// file is removed only after a connect probe fails — removing it
// unconditionally would silently unbind a live daemon on the same
// path, stranding it with no reachable socket.
func Listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		if _, err := os.Stat(path); err == nil {
			conn, err := net.DialTimeout("unix", path, 500*time.Millisecond)
			if err == nil {
				conn.Close()
				return nil, fmt.Errorf("daemon: socket %s is in use by a live daemon", path)
			}
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("daemon: stale socket: %w", err)
			}
		}
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// Serve accepts connections on l until Shutdown (returning nil) or a
// listener failure (returning its error).
func (d *Daemon) Serve(l net.Listener) error {
	err := d.server.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown gracefully stops the daemon: stop accepting work, wait up to
// the drain timeout for running batches, then abort leftover jobs via
// context cancellation and close. It returns nil when everything
// drained cleanly and the drain error otherwise.
func (d *Daemon) Shutdown() error {
	d.draining.Store(true)
	mDraining.Set(1)
	defer mDraining.Set(0)
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.DrainTimeout)
	defer cancel()
	err := d.server.Shutdown(ctx)
	if err == nil {
		d.baseCancel() // nothing left to abort; release the context
		return nil
	}
	// Drain timed out with batches still running: cancel every job and
	// give the handlers a moment to observe it and flush their streams.
	d.log.Warn("drain timeout, aborting in-flight jobs", "timeout", d.cfg.DrainTimeout)
	d.baseCancel()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err2 := d.server.Shutdown(ctx2); err2 != nil {
		d.server.Close()
	}
	return fmt.Errorf("daemon: drain: %w", err)
}

// ServeUntilSignal serves on l until SIGINT or SIGTERM arrives, then
// drains and returns Shutdown's result — the whole lifecycle of
// cmd/prosimd in one call.
func (d *Daemon) ServeUntilSignal(l net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- d.Serve(l) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		d.log.Info("signal received, draining", "signal", s.String(), "timeout", d.cfg.DrainTimeout)
		err := d.Shutdown()
		<-errc
		d.log.Info("stopped")
		return err
	}
}

// runJob executes one job with singleflight dedupe: the first
// submission of a key becomes the leader and runs it, concurrent
// submissions of the same key attach and share the outcome. waitCtx is
// the submitting request's context — it bounds this submission's wait
// but never the shared run: once a flight is registered, the leader's
// slot wait and execution proceed under the daemon's own context, so a
// leader whose client disconnects mid-queue cannot poison the result
// its attached followers are waiting on.
func (d *Daemon) runJob(waitCtx context.Context, mj *memoJob) (r *stats.KernelResult, fromCache, deduped bool, err error) {
	j, key := &mj.job, mj.key
	if mj.keyErr != nil {
		d.disp.forfeit()
		return nil, false, false, mj.keyErr
	}

	d.mu.Lock()
	if f := d.inflight[key]; f != nil {
		d.mu.Unlock()
		d.disp.forfeit() // the leader holds the queue position
		d.attached.Add(1)
		mAttached.Add(1)
		defer func() {
			d.attached.Add(-1)
			mAttached.Add(-1)
		}()
		select {
		case <-f.done:
			mDeduped.Inc()
			return f.res, f.fromCache, true, f.err
		case <-waitCtx.Done():
			return nil, false, false, waitCtx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	d.inflight[key] = f
	d.mu.Unlock()

	// Leader: from here on the run belongs to every attached follower,
	// so it waits and executes under d.baseCtx, not waitCtx.
	f.res, f.fromCache, f.err = d.execute(j, key)
	d.mu.Lock()
	delete(d.inflight, key)
	d.mu.Unlock()
	close(f.done)
	return f.res, f.fromCache, false, f.err
}

// execute runs j (cache key key) through the engine: a cached result
// returns without a worker slot, a miss waits for one. The slot wait and
// the run are bound to the daemon's lifetime (plus JobTimeout for the
// run), not to the submitting request: followers may be attached to it.
func (d *Daemon) execute(j *jobs.Job, key string) (*stats.KernelResult, bool, error) {
	acquired := false
	r, fromCache, err := d.eng.RunJobKeyed(d.baseCtx, j, key, func(ctx context.Context) (context.Context, func(), error) {
		acquired = true
		if err := d.disp.acquire(ctx); err != nil {
			return nil, nil, err
		}
		d.running.Add(1)
		mInflight.Add(1)
		cancel := context.CancelFunc(func() {})
		if d.cfg.JobTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, d.cfg.JobTimeout)
		}
		return ctx, func() {
			cancel()
			d.running.Add(-1)
			mInflight.Add(-1)
			d.disp.release()
		}, nil
	})
	if !acquired {
		d.disp.forfeit() // a cache hit, or a job that failed before simulating
	}
	return r, fromCache, err
}

// reject refuses a batch before any job ran: it counts the rejection in
// /v1/stats and in reason (one of the mRejected* series), sets
// Retry-After for retryable statuses, and writes the error body.
func (d *Daemon) reject(w http.ResponseWriter, code int, reason *obs.Counter, msg string, retryAfter time.Duration) {
	d.rejected.Add(1)
	reason.Inc()
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds()+0.999)))
	}
	http.Error(w, msg, code)
}

// retryAfterHint estimates when a full queue will have drained enough
// to admit new work: pending jobs over worker slots, clamped to a sane
// polling range.
func (d *Daemon) retryAfterHint() time.Duration {
	sec := min(max(d.disp.depth()/d.cfg.Workers, 1), 60)
	return time.Duration(sec) * time.Second
}

// submitPoolSize bounds a batch's submission goroutines. Submission
// goroutines mostly park (on the dispatcher or an NDJSON emit), but a
// goroutine per job still means a 100k-job batch costs gigabytes of
// stacks; a small multiple of the worker count keeps every slot fed
// with a bounded footprint.
func (d *Daemon) submitPoolSize(n int) int {
	pool := d.cfg.Workers * 4
	if pool < 8 {
		pool = 8
	}
	if pool > 64 {
		pool = 64
	}
	if pool > n {
		pool = n
	}
	return pool
}

// handleBatch streams a batch execution: one NDJSON job event per
// completion (strictly increasing seq), then one batch line with the
// results in job order. Individual job failures are reported per job
// and do not abort the rest of the batch.
//
// Admission happens before the stream starts, in order: drain check
// (503), body cap (413) and parsing (400), job-count cap (413), queue
// capacity (429). Every 429 carries Retry-After.
func (d *Daemon) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if d.draining.Load() {
		d.reject(w, http.StatusServiceUnavailable, mRejectedDraining, "daemon is draining", 2*time.Second)
		return
	}
	if js, ok := d.readBatch(w, r); ok {
		d.serveBatch(w, r, js)
	}
}

// readBatch reads the body once and splits it in one pass; any refusal is
// left to the reference, the decoder over the same bytes and read error
// (DESIGN.md §9.5). ok false means it answered (400 or a counted 413).
func (d *Daemon) readBatch(w http.ResponseWriter, r *http.Request) ([]*memoJob, bool) {
	bodyCap := maxJobBytes * int64(d.cfg.MaxBatchJobs)
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= bodyCap {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, rerr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, bodyCap))
	if raws, ok := splitBatch(buf.Bytes()); ok && rerr == nil && len(raws) <= d.cfg.MaxBatchJobs {
		if js, err := d.decodeBatch(raws); err == nil {
			return js, true
		}
	}
	var req struct { // BatchRequest, its jobs left as bytes for decodeJob
		Jobs []json.RawMessage `json:"jobs"`
	}
	src := io.MultiReader(bytes.NewReader(buf.Bytes()), errReader{rerr})
	if err := json.NewDecoder(src).Decode(&req); errors.As(err, new(*http.MaxBytesError)) {
		d.reject(w, http.StatusRequestEntityTooLarge, mRejectedBodySize,
			fmt.Sprintf("batch body exceeds the %d-byte cap; split it", bodyCap), 0)
		return nil, false
	} else if err != nil {
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(req.Jobs) > d.cfg.MaxBatchJobs {
		d.reject(w, http.StatusRequestEntityTooLarge, mRejectedBatchSize,
			fmt.Sprintf("batch of %d jobs exceeds the %d-job cap; split it", len(req.Jobs), d.cfg.MaxBatchJobs), 0)
		return nil, false
	}
	js, err := d.decodeBatch(req.Jobs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return js, true
}

// errReader replays the error that ended a body read (io.EOF for none).
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, cmp.Or(e.err, io.EOF) }

// decodeBatch decodes jobs; an error is the 400's text.
func (d *Daemon) decodeBatch(raws []json.RawMessage) ([]*memoJob, error) {
	js := make([]*memoJob, len(raws))
	for i, raw := range raws {
		var err error
		if js[i], err = d.decodeJob(raw); err != nil {
			return nil, fmt.Errorf("bad job %d: %v", i, err)
		}
	}
	return js, nil
}

// serveBatch admits a decoded batch to the queue and streams it.
func (d *Daemon) serveBatch(w http.ResponseWriter, r *http.Request, js []*memoJob) {
	if !d.disp.admit(len(js)) {
		d.reject(w, http.StatusTooManyRequests, mRejectedQueue,
			fmt.Sprintf("queue is full (%d pending)", d.cfg.QueueDepth), d.retryAfterHint())
		return
	}
	d.batches.Add(1)
	mBatches.Inc()
	d.log.Info("batch accepted", "jobs", len(js), "remote", r.RemoteAddr)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var (
		emu        sync.Mutex
		enc        = json.NewEncoder(w)
		seq        int
		hits       int
		free       int // hits + deduped: jobs that cost this batch ~nothing
		streamDead bool
		lost       atomic.Bool
		start      = time.Now()
		results    = make([]JobResult, len(js))
		wg         sync.WaitGroup
	)
	emit := func(ev *Event) {
		emu.Lock()
		defer emu.Unlock()
		seq++
		ev.Seq = seq
		ev.Done = seq
		ev.Total = len(js)
		if ev.FromCache {
			hits++
		}
		if ev.FromCache || ev.Deduped {
			free++
		}
		ev.CacheHits = hits
		elapsed := time.Since(start)
		ev.ElapsedMS = elapsed.Milliseconds()
		ev.EtaMS = jobs.ETA(elapsed, seq, free, len(js)).Milliseconds()
		if streamDead {
			return
		}
		if err := enc.Encode(ev); err != nil {
			// The client is gone; keep running (followers and the cache
			// still want the results) but stop writing into the void.
			streamDead = true
			return
		}
		// The last job event rides with the batch line written right after.
		if flusher != nil && seq < len(js) {
			flusher.Flush()
		}
	}

	// A bounded submission pool instead of one goroutine per job: the
	// admission queue bounds how much work may pend, the pool bounds
	// how many goroutines carry it.
	idx := make(chan int)
	pool := d.submitPoolSize(len(js))
	for p := 0; p < pool; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := r.Context().Err(); err != nil {
					// Client gone before this job was submitted: drop its
					// reservation instead of launching work nobody reads.
					d.disp.forfeit()
					results[i] = JobResult{Err: "submission canceled: " + err.Error()}
					continue
				}
				res, fromCache, deduped, err := d.runJob(r.Context(), js[i])
				if err != nil && d.baseCtx.Err() != nil {
					// The daemon's own shutdown ended the job: lost work,
					// not a result. It gets no event and the batch no
					// batch line, so the client names it pending.
					lost.Store(true)
					continue
				}
				ev := Event{
					Type:      "job",
					Index:     i,
					Kernel:    js[i].job.Label(),
					Scheduler: js[i].job.SchedLabel(),
					FromCache: fromCache,
					Deduped:   deduped,
				}
				if err != nil {
					ev.Err = err.Error()
					results[i] = JobResult{Err: err.Error()}
				} else {
					results[i] = JobResult{Result: res}
				}
				emit(&ev)
			}
		}()
	}
	for i := range js {
		idx <- i
	}
	close(idx)
	wg.Wait()

	emu.Lock()
	defer emu.Unlock()
	if !streamDead && !lost.Load() {
		enc.Encode(&Event{Type: "batch", Results: results})
		if flusher != nil {
			flusher.Flush()
		}
	}
	d.log.Info("batch done",
		"jobs", len(js), "cached", hits,
		"elapsed_sec", fmt.Sprintf("%.1f", time.Since(start).Seconds()))
}

// handleHealth is the coordinator's liveness probe: always 200 with a
// tiny JSON body, "draining" once a shutdown began so pollers stop
// assigning new work while in-flight jobs finish.
func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	h := Health{
		Status:     "ok",
		Draining:   d.draining.Load(),
		InFlight:   d.running.Load(),
		UptimeSec:  time.Since(d.start).Seconds(),
		Workers:    d.cfg.Workers,
		QueueDepth: d.disp.depth(),
	}
	if h.Draining {
		h.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	st := Stats{
		Completed: d.eng.Completed(),
		Simulated: d.eng.Simulated(),
		Replayed:  d.eng.Replayed(),
		InFlight:  d.running.Load(),
		Attached:  d.attached.Load(),
		Batches:   d.batches.Load(),
		UptimeSec: time.Since(d.start).Seconds(),
		Workers:   d.cfg.Workers,
		Draining:  d.draining.Load(),
	}
	if c := d.eng.Cache; c != nil {
		st.CacheDir = c.Dir()
		st.CacheHits = c.Hits()
		st.CacheMisses = c.Misses()
		st.CacheWrites = c.Writes()
		st.CacheBytesRead = c.BytesRead()
		st.CacheBytesWritten = c.BytesWritten()
	}
	st.Rejected = d.rejected.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
