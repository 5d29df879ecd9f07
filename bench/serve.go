package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Sizes of the serving workloads. The issue sized one serve_warm pass at
// 2×20 000 + 2×1 500 requests; the run budget fits about three passes, so
// a pass carries half of that.
const (
	serveClients      = 2
	serveSingleReqs   = 10000 // per client, one job each
	serveBatchReqs    = 750   // per client, serveBatchJobs jobs each
	serveBatchJobs    = 25
	serveMaxTBs       = 8
	serveSoloRequests = 2000 // traced run: one sequential client
	sweepMaxTBs       = 16
)

// served is an in-process daemon on a unix socket.
type served struct {
	d    *daemon.Daemon
	addr string
	done chan error
}

func startDaemon(cfg daemon.Config, sock string) (*served, error) {
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	addr := "unix:" + sock
	l, err := daemon.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &served{d: d, addr: addr, done: make(chan error, 1)}
	go func() { s.done <- d.Serve(l) }()
	return s, nil
}

// stop drains the daemon and waits for its accept loop to end.
func (s *served) stop() error {
	err := s.d.Shutdown()
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// allKernelJobs is the paper grid — all 25 kernels × 4 schedulers — and
// its cache keys.
func allKernelJobs(seed uint64, maxTBs int) ([]jobs.Job, []string, error) {
	ws, err := seededWorkloads(nil, seed)
	if err != nil {
		return nil, nil, err
	}
	js := jobs.Grid(ws, paperSchedulers, maxTBs, gpu.Options{})
	keys, err := jobKeys(js)
	return js, keys, err
}

func marshalAll(rs []*stats.KernelResult) ([][]byte, error) {
	out := make([][]byte, len(rs))
	for i, r := range rs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// ---- serve_warm ----

type serveInstance struct {
	dir     string
	js      []jobs.Job
	keys    []string
	ref     []*stats.KernelResult // what a local engine simulated for js
	refJSON [][]byte
	srv     *served
	clients []*daemon.Client
}

func openServeWarm(h *harness) (_ instance, err error) {
	in := &serveInstance{}
	if in.dir, err = os.MkdirTemp(h.tmp, "serve-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if in.js, in.keys, err = allKernelJobs(h.opts.seed, serveMaxTBs); err != nil {
		return nil, err
	}
	cache := filepath.Join(in.dir, "cache")
	// Pre-fill: a local engine simulates the grid into the cache the
	// daemon will serve from; its results are the reference every served
	// result must equal byte for byte.
	eng, err := jobs.New(0, cache, nil)
	if err != nil {
		return nil, err
	}
	if in.ref, err = eng.Run(context.Background(), in.js); err != nil {
		return nil, err
	}
	if in.refJSON, err = marshalAll(in.ref); err != nil {
		return nil, err
	}
	if in.srv, err = startDaemon(daemon.Config{CacheDir: cache}, filepath.Join(in.dir, "d.sock")); err != nil {
		return nil, err
	}
	for c := 0; c < serveClients; c++ {
		in.clients = append(in.clients, daemon.NewClient(in.srv.addr))
	}
	if _, err = in.clients[0].Health(context.Background()); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *serveInstance) close() error {
	var err error
	if in.srv != nil {
		err = in.srv.stop()
	}
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

// clientLog is what one closed-loop client observed.
type clientLog struct {
	latMS    []float64
	cycles   int64
	last     []*stats.KernelResult // last served result per job index
	seenJSON []bool
	failures []string
}

// verify compares a served result with the reference: the counters on
// every reply, the full JSON encoding the first time this client sees the
// job.
func (in *serveInstance) verify(log *clientLog, idx int, r *stats.KernelResult) {
	ref := in.ref[idx]
	ok := r != nil && r.Cycles == ref.Cycles && r.WarpInstrs == ref.WarpInstrs &&
		r.ThreadInstrs == ref.ThreadInstrs && r.TBCount == ref.TBCount &&
		r.Stalls == ref.Stalls && r.Mem == ref.Mem
	if ok && !log.seenJSON[idx] {
		log.seenJSON[idx] = true
		b, err := json.Marshal(r)
		ok = err == nil && bytes.Equal(b, in.refJSON[idx])
	}
	if !ok {
		log.failures = append(log.failures, jobLabel(&in.js[idx])+": served result differs from the local engine's")
		return
	}
	log.cycles += r.Cycles
	log.last[idx] = r
}

// phase runs every client through n requests of size jobs each, closed
// loop, and returns the phase's wall time. The request stream of a client
// depends only on the seed, the phase and the client, so every pass of a
// run replays it.
func (in *serveInstance) phase(h *harness, name string, n, size int, logs []*clientLog) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c, client := range in.clients {
		wg.Add(1)
		go func(c int, client *daemon.Client, log *clientLog) {
			defer wg.Done()
			rng := xrand.NewRNG(xrand.Mix3(h.opts.seed, uint64(size), uint64(c)))
			order := make([]int, len(in.js))
			for i := range order {
				order[i] = i
			}
			batch := make([]jobs.Job, size)
			track := fmt.Sprintf("client%d", c)
			for i := 0; i < n; i++ {
				// A partial Fisher-Yates shuffle draws size distinct jobs.
				for k := 0; k < size; k++ {
					s := k + rng.Intn(len(order)-k)
					order[k], order[s] = order[s], order[k]
					batch[k] = in.js[order[k]]
				}
				t0 := time.Now()
				rs, err := client.Run(context.Background(), batch)
				t1 := time.Now()
				h.tr.add(name, track, h.passSpan, t0, t1, nil)
				if err != nil {
					log.failures = append(log.failures, name+": "+err.Error())
					continue
				}
				log.latMS = append(log.latMS, t1.Sub(t0).Seconds()*1e3)
				for k, r := range rs {
					in.verify(log, order[k], r)
				}
			}
		}(c, client, logs[c])
	}
	wg.Wait()
	return time.Since(start)
}

func (in *serveInstance) newLogs() []*clientLog {
	logs := make([]*clientLog, len(in.clients))
	for c := range logs {
		logs[c] = &clientLog{last: make([]*stats.KernelResult, len(in.js)), seenJSON: make([]bool, len(in.js))}
	}
	return logs
}

func (in *serveInstance) run(h *harness) (*passOut, error) {
	ctx := context.Background()
	before, err := in.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	simulated := in.srv.d.Engine().Simulated()

	single, batch := in.newLogs(), in.newLogs()
	wallA := in.phase(h, "Client.Run single", serveSingleReqs, 1, single)
	wallB := in.phase(h, "Client.Run batch25", serveBatchReqs, serveBatchJobs, batch)

	after, err := in.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	out := &passOut{
		wall: wallA + wallB, reqWall: wallA,
		jobs: in.js, keys: in.keys, results: make([]*stats.KernelResult, len(in.js)),
		ops: serveClients * (serveSingleReqs + serveBatchReqs),
	}
	var batchMS []float64
	for c := range in.clients {
		out.reqMS = append(out.reqMS, single[c].latMS...)
		batchMS = append(batchMS, batch[c].latMS...)
		out.cycles += single[c].cycles + batch[c].cycles
		out.failures = append(out.failures, single[c].failures...)
		out.failures = append(out.failures, batch[c].failures...)
		for i := range in.js {
			for _, log := range []*clientLog{single[c], batch[c]} {
				if log.last[i] != nil {
					out.results[i] = log.last[i]
				}
			}
		}
	}
	for i, r := range out.results {
		if r == nil {
			// Not drawn this pass (vanishingly unlikely at these request
			// counts): the reference stands in so the result checks keep
			// their per-kernel shape; nothing was served to verify.
			out.results[i] = in.ref[i]
		}
	}
	if d := in.srv.d.Engine().Simulated() - simulated; d != 0 {
		out.failures = append(out.failures, fmt.Sprintf("daemon simulated %d jobs while serving a warm cache", d))
	}
	if d := after.Rejected - before.Rejected; d != 0 {
		out.failures = append(out.failures, fmt.Sprintf("daemon refused %d requests", d))
	}
	if h.tracing() {
		h.sample("daemon.batch25_ms", median(batchMS))
		h.sample("daemon.batch_jobs_per_s", float64(len(batchMS)*serveBatchJobs)/wallB.Seconds())
		h.sample("daemon.req_p999_ms", percentile(out.reqMS, 99.9))
		h.sample("daemon.rejected", float64(after.Rejected-before.Rejected))
		h.sample("daemon.simulated_during_warm", float64(in.srv.d.Engine().Simulated()-simulated))
		h.sample("resultcache.hits", float64(after.CacheHits-before.CacheHits))
		h.sample("resultcache.misses", float64(after.CacheMisses-before.CacheMisses))
		h.sample("resultcache.writes", float64(after.CacheWrites-before.CacheWrites))
	}
	return out, nil
}

// serveWarmExtras measures one request at a time from one client: the
// latency with nothing else contending, and — less what the job engine
// spends on a warm job — the daemon's own share of it.
func serveWarmExtras(h *harness) error {
	opened, err := openServeWarm(h)
	if err != nil {
		return err
	}
	in := opened.(*serveInstance)
	defer in.close()
	in.clients = in.clients[:1]
	logs := in.newLogs()
	in.phase(h, "Client.Run solo", serveSoloRequests, 1, logs)
	if len(logs[0].failures) > 0 {
		h.fail(logs[0].failures[0])
	}
	solo := median(logs[0].latMS) * 1e3
	h.sample("daemon.req_us.single", solo)
	h.sample("daemon.self_us", solo-h.driver("jobs.runjob_warm_us"))
	return nil
}

// ---- sweep_cold ----

type sweepInstance struct {
	dir     string
	js      []jobs.Job
	keys    []string
	workers []*served
	coord   *cluster.Coordinator
	log     progressLog
}

func openSweepCold(h *harness) (_ instance, err error) {
	in := &sweepInstance{}
	if in.dir, err = os.MkdirTemp(h.tmp, "sweep-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if in.js, in.keys, err = allKernelJobs(h.opts.seed, sweepMaxTBs); err != nil {
		return nil, err
	}
	cache := filepath.Join(in.dir, "cache")
	var addrs []string
	for w := 0; w < 2; w++ {
		// One simulation per daemon, ticked serially: two daemons fill the
		// host's two cores.
		s, err := startDaemon(daemon.Config{Workers: 1, SMWorkers: 1, CacheDir: cache},
			filepath.Join(in.dir, fmt.Sprintf("w%d.sock", w)))
		if err != nil {
			return nil, err
		}
		in.workers = append(in.workers, s)
		addrs = append(addrs, s.addr)
	}
	in.coord, err = cluster.New(cluster.Config{Workers: addrs, CacheDir: cache, Priority: daemon.PriorityBulk})
	if err != nil {
		return nil, err
	}
	in.coord.OnProgress = in.log.onEvent
	return in, nil
}

func (in *sweepInstance) close() error {
	var err error
	if in.coord != nil {
		in.coord.Close()
	}
	for _, s := range in.workers {
		if serr := s.stop(); err == nil {
			err = serr
		}
	}
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

func dispatched(st cluster.Stats) (n int64) {
	for _, w := range st.Workers {
		n += w.Dispatched
	}
	return n
}

func (in *sweepInstance) run(h *harness) (*passOut, error) {
	ctx := context.Background()
	var cold, again []*stats.KernelResult
	var err error
	_, wall := h.tr.timed("Coordinator.Run cold", "main", h.passSpan, func() {
		cold, err = in.coord.Run(ctx, in.js)
	})
	if err != nil {
		return nil, err
	}
	out := &passOut{wall: wall, jobs: in.js, keys: in.keys, results: cold, reqMS: in.log.takeMS(), ops: 2 * len(in.js)}
	afterCold := in.coord.Snapshot()

	_, resume := h.tr.timed("Coordinator.Run resume", "main", h.passSpan, func() {
		again, err = in.coord.Run(ctx, in.js)
	})
	if err != nil {
		return nil, err
	}
	afterResume := in.coord.Snapshot()

	if n := dispatched(afterCold); n != int64(len(in.js)) {
		out.failures = append(out.failures, fmt.Sprintf("cold sweep dispatched %d jobs, want %d", n, len(in.js)))
	}
	if afterResume.Retries != 0 || afterResume.WorkersLost != 0 {
		out.failures = append(out.failures, fmt.Sprintf("sweep had %d retries, %d workers lost", afterResume.Retries, afterResume.WorkersLost))
	}
	if hits := afterResume.MergeHits - afterCold.MergeHits; hits != int64(len(in.js)) {
		out.failures = append(out.failures, fmt.Sprintf("resume merged %d jobs from the cache, want %d", hits, len(in.js)))
	}
	if n := dispatched(afterResume) - dispatched(afterCold); n != 0 {
		out.failures = append(out.failures, fmt.Sprintf("resume dispatched %d jobs, want 0", n))
	}

	// Served results must equal a local engine's, byte for byte.
	ref, refWall, err := h.sweepReference(in.js)
	if err != nil {
		return nil, err
	}
	for _, rs := range [][]*stats.KernelResult{cold, again} {
		got, err := marshalAll(rs)
		if err != nil {
			return nil, err
		}
		for i := range got {
			if !bytes.Equal(got[i], ref[i]) {
				out.failures = append(out.failures, jobLabel(&in.js[i])+": coordinator result differs from the local engine's")
			}
		}
	}

	if h.tracing() {
		h.sample("cluster.dispatched", float64(dispatched(afterCold)))
		h.sample("cluster.steals", float64(afterResume.Steals))
		h.sample("cluster.retries", float64(afterResume.Retries))
		h.sample("cluster.merge_hits", float64(afterResume.MergeHits-afterCold.MergeHits))
		h.sample("cluster.resume_ms", resume.Seconds()*1e3)
		// Two workers share the simulation, so half the serial simulation
		// time is the floor; the rest of the cold wall is the cluster's.
		h.sample("cluster.overhead_pct", 100*(wall.Seconds()-refWall.Seconds()/2)/wall.Seconds())
		var hits, misses, writes int64
		for _, s := range in.workers {
			st, err := daemon.NewClient(s.addr).Stats(ctx)
			if err != nil {
				return nil, err
			}
			hits += st.CacheHits
			misses += st.CacheMisses
			writes += st.CacheWrites
		}
		h.sample("resultcache.hits", float64(hits))
		h.sample("resultcache.misses", float64(misses))
		h.sample("resultcache.writes", float64(writes))
	}
	return out, nil
}

// sweepReference simulates js once per run on a local engine and returns
// the JSON of each result. A traced run does it on one worker and
// reports how long that took: the serial simulation time behind
// cluster.overhead_pct.
func (h *harness) sweepReference(js []jobs.Job) ([][]byte, time.Duration, error) {
	if h.sweepRef != nil {
		return h.sweepRef, h.sweepRefWall, nil
	}
	eng := &jobs.Engine{}
	if h.opts.traced {
		eng = &jobs.Engine{Workers: 1, SMWorkers: 1}
	}
	start := time.Now()
	rs, err := eng.Run(context.Background(), js)
	if err != nil {
		return nil, 0, err
	}
	h.sweepRefWall = time.Since(start)
	h.sweepRef, err = marshalAll(rs)
	return h.sweepRef, h.sweepRefWall, err
}
