package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/icnt"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/memsys"
	"repro/internal/resultcache"
	"repro/internal/schedreg"
	"repro/internal/timing"
	"repro/internal/xrand"
)

// A layer driver exercises one layer through its public functions only,
// with an op stream drawn from the run's seed, and reports host time per
// operation. Drivers are how a regression is localised without a
// profiler: each names the layer whose cost it isolates.
type layerDriver struct {
	metric string
	// ops is the operation count of one repetition at full scale.
	ops int
	// perOp converts the mean nanoseconds of one operation into the
	// metric's unit (1 for ns, 1e-3 for µs).
	perOp float64
	// run performs ops operations and returns the time spent in them;
	// building the rig is outside the returned time.
	run func(h *harness, ops int) (time.Duration, error)
}

// driverReps is how often each driver repeats; its metric is the median.
const driverReps = 3

func layerDrivers() []layerDriver {
	ds := []layerDriver{
		{"engine.sm_tick_ns.issue", 20000, 1, driveSMTick(aluProgram)},
		{"engine.sm_tick_ns.memstall", 20000, 1, driveSMTick(streamProgram)},
		{"engine.tb_churn_ns", 2000, 1, driveTBChurn},
		{"memsys.load_hit_ns", 20000, 1, driveLoadHit},
		{"memsys.load_miss_ns", 8000, 1, driveLoadMiss},
		{"memsys.store_ns", 8000, 1, driveStore},
		{"memsys.idle_tick_ns", 100000, 1, driveIdleTick},
		{"cache.access_hit_ns", 100000, 1, driveCacheHit},
		{"cache.access_miss_fill_ns", 100000, 1, driveCacheMissFill},
		{"cache.mshr_add_fill_ns", 100000, 1, driveMSHR},
		{"dram.enqueue_ns", 100000, 1, driveDRAMEnqueue},
		{"dram.tick_ns.q4", 50000, 1, driveDRAMTick(4)},
		{"dram.tick_ns.q32", 50000, 1, driveDRAMTick(32)},
		{"icnt.send_ns", 50000, 1, driveIcntSend},
		{"timing.schedule_advance_ns_per_event", 100000, 1, driveWheel(1)},
		{"timing.schedule_batch_ns_per_event", 100000, 1, driveWheel(8)},
		{"timing.wakeheap_set_min_ns", 100000, 1, driveWakeHeap},
		{"jobs.key_us", 400, 1e-3, driveJobKey},
	}
	for _, name := range schedreg.All() {
		ds = append(ds, layerDriver{"sched.order_build_ns." + name, 20000, 1, driveOrderBuild(name)})
	}
	return ds
}

// runDrivers runs every layer driver at 1/shrink of its full op count and
// samples its metric. The result-cache drivers share one warm cache and
// run last.
func runDrivers(h *harness, shrink int) error {
	for _, d := range layerDrivers() {
		if err := h.drive(d, shrink); err != nil {
			return err
		}
	}
	return h.driveResultCache(shrink)
}

func (h *harness) drive(d layerDriver, shrink int) error {
	ops := d.ops / shrink
	if ops < 1 {
		ops = 1
	}
	return h.repeat(d.metric, ops, d.perOp, func() (time.Duration, error) { return d.run(h, ops) })
}

// repeat runs a driver driverReps times inside one span and samples the
// median cost of an operation: the time run spent, over ops, times perOp.
func (h *harness) repeat(metric string, ops int, perOp float64, run func() (time.Duration, error)) error {
	var costs []float64
	span := h.tr.begin("driver "+metric, "drivers", 0)
	for r := 0; r < driverReps; r++ {
		spent, err := run()
		if err != nil {
			return fmt.Errorf("driver %s: %w", metric, err)
		}
		costs = append(costs, float64(spent.Nanoseconds())/float64(ops)*perOp)
	}
	h.tr.end(span)
	h.sample(metric, median(costs))
	return nil
}

// ---- engine rigs ----

// rigWarps is the resident warp count of the single-SM rig: a full
// Fermi SM (6 thread blocks of 8 warps).
const rigWarps = 48

// aluProgram keeps every warp issuing: a long loop of dependent-free ALU
// work, the steady state of compute_grid.
func aluProgram() *isa.Program {
	b := isa.NewBuilder("bench_alu")
	b.Loop(isa.LoopSpec{Min: 1 << 20, Max: 1 << 20})
	b.FFMA(1, 2, 3, 1)
	b.IAdd(4, 5, 6)
	b.FMul(7, 8, 9)
	b.IAdd(10, 11, 12)
	b.EndLoop()
	b.Exit()
	return b.MustBuild()
}

// streamProgram keeps every warp waiting on memory: each iteration loads
// a fresh line and consumes it, the steady state of memory_grid.
func streamProgram() *isa.Program {
	b := isa.NewBuilder("bench_stream")
	b.Loop(isa.LoopSpec{Min: 1 << 20, Max: 1 << 20})
	b.LdGlobal(1, isa.MemSpec{Pattern: isa.PatCoalesced, Space: 0, IterVaries: true})
	b.FAdd(2, 1, 2)
	b.EndLoop()
	b.Exit()
	return b.MustBuild()
}

// churnProgram is the shortest useful thread block.
func churnProgram() *isa.Program {
	b := isa.NewBuilder("bench_churn")
	b.IAdd(1, 2, 3)
	b.Exit()
	return b.MustBuild()
}

// smRig is one SM wired to its own wheel and memory system, the way
// gpu.RunContext wires fourteen.
type smRig struct {
	wheel *timing.Wheel
	mem   *memsys.System
	sm    *engine.SM
	cycle int64
	next  int // next global TB index
}

func newSMRig(seed uint64, prog *isa.Program, sched string) (*smRig, error) {
	cfg := config.GTX480()
	cfg.NumSMs = 1
	factory, err := schedreg.New(sched)
	if err != nil {
		return nil, err
	}
	launch := &engine.Launch{
		Program: prog, GridTBs: 1 << 30, BlockThreads: 256,
		RegsPerThread: 16, Seed: xrand.Hash64(seed),
	}
	if err := launch.Validate(cfg); err != nil {
		return nil, err
	}
	if got := launch.ResidentTBs(cfg) * launch.WarpsPerTB(); got != rigWarps {
		return nil, fmt.Errorf("rig holds %d resident warps, want %d", got, rigWarps)
	}
	r := &smRig{wheel: timing.NewWheel()}
	r.mem = memsys.New(cfg, r.wheel)
	r.sm = engine.NewSM(0, cfg, r.wheel, r.mem, launch, factory)
	return r, nil
}

// step advances the rig one cycle, keeping the SM full.
func (r *smRig) step() {
	r.cycle++
	r.wheel.Advance(r.cycle)
	r.mem.Tick(r.cycle)
	for r.sm.CanAccept() {
		r.sm.AssignTB(r.next, r.cycle)
		r.next++
	}
	r.sm.Tick(r.cycle)
}

// driveSMTick times rig cycles (wheel advance, memory tick, SM tick) in
// the steady state of prog, after a warm-up that fills the pipelines.
func driveSMTick(prog func() *isa.Program) func(*harness, int) (time.Duration, error) {
	return func(h *harness, ops int) (time.Duration, error) {
		r, err := newSMRig(h.opts.seed, prog(), "GTO")
		if err != nil {
			return 0, err
		}
		for i := 0; i < 2000; i++ {
			r.step()
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			r.step()
		}
		return time.Since(start), nil
	}
}

// driveTBChurn times the life of a minimal thread block — assignment,
// fetch, two issues, retirement — by streaming ops of them through the
// rig.
func driveTBChurn(h *harness, ops int) (time.Duration, error) {
	r, err := newSMRig(h.opts.seed, churnProgram(), "GTO")
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for r.next < ops {
		r.step()
	}
	return time.Since(start), nil
}

// driveOrderBuild times Scheduler.Order on a full SM whose policy state
// has been exercised by a few thousand cycles of the ALU program.
func driveOrderBuild(sched string) func(*harness, int) (time.Duration, error) {
	return func(h *harness, ops int) (time.Duration, error) {
		r, err := newSMRig(h.opts.seed, aluProgram(), sched)
		if err != nil {
			return 0, err
		}
		for i := 0; i < 3000; i++ {
			r.step()
		}
		buf := make([]*engine.Warp, 0, rigWarps)
		start := time.Now()
		for i := 0; i < ops; i++ {
			buf = r.sm.Sched.Order(i&1, buf[:0], r.cycle)
		}
		return time.Since(start), nil
	}
}

// ---- memory-side drivers ----

type memRig struct {
	cfg    *config.Config
	wheel  *timing.Wheel
	mem    *memsys.System
	cycle  int64
	done   int
	onDone func(int64)
}

func newMemRig() *memRig {
	r := &memRig{cfg: config.GTX480(), wheel: timing.NewWheel()}
	r.mem = memsys.New(r.cfg, r.wheel)
	r.onDone = func(int64) { r.done++ }
	return r
}

func (r *memRig) step() {
	r.cycle++
	r.wheel.Advance(r.cycle)
	r.mem.Tick(r.cycle)
}

// line returns a line-aligned address; distinct i give distinct lines.
func (r *memRig) line(i uint64) uint64 { return i * uint64(r.cfg.L1Line) }

// driveLoadHit times LoadLine on L1-resident lines, including the wheel
// cycle that delivers each completion.
func driveLoadHit(h *harness, ops int) (time.Duration, error) {
	r := newMemRig()
	const resident = 64 // lines, well inside one L1
	for issued := uint64(0); r.done < resident; r.step() {
		for issued < resident && r.mem.LoadLine(0, r.line(issued), r.onDone) {
			issued++
		}
	}
	rng := xrand.NewRNG(h.opts.seed)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if !r.mem.LoadLine(0, r.line(uint64(rng.Intn(resident))), r.onDone) {
			return 0, fmt.Errorf("L1-resident load refused")
		}
		r.step()
	}
	return time.Since(start), nil
}

// driveLoadMiss times the whole life of a load that misses L1 and L2:
// MSHR allocation, interconnect, L2, DRAM and the way back, with the
// wheel and memory ticks it takes, amortised over a stream that keeps
// the MSHRs as full as they accept.
func driveLoadMiss(h *harness, ops int) (time.Duration, error) {
	r := newMemRig()
	rng := xrand.NewRNG(h.opts.seed)
	base := rng.Next() >> 24 // a fresh region per seed
	issued := 0
	start := time.Now()
	for r.done < ops {
		for issued < ops && r.mem.LoadLine(issued%r.cfg.NumSMs, r.line(base+uint64(issued)), r.onDone) {
			issued++
		}
		r.step()
	}
	return time.Since(start), nil
}

// driveStore times StoreLine through to the release of its store-buffer
// slot, amortised the same way.
func driveStore(h *harness, ops int) (time.Duration, error) {
	r := newMemRig()
	rng := xrand.NewRNG(h.opts.seed)
	base := rng.Next() >> 24
	issued := 0
	outstanding := func() (n int) {
		for sm := 0; sm < r.cfg.NumSMs; sm++ {
			n += r.mem.OutstandingStores(sm)
		}
		return n
	}
	start := time.Now()
	for issued < ops || outstanding() > 0 {
		for issued < ops && r.mem.StoreLine(issued%r.cfg.NumSMs, r.line(base+uint64(issued))) {
			issued++
		}
		r.step()
	}
	return time.Since(start), nil
}

// driveIdleTick times System.Tick with nothing queued.
func driveIdleTick(h *harness, ops int) (time.Duration, error) {
	r := newMemRig()
	start := time.Now()
	for i := 0; i < ops; i++ {
		r.cycle++
		r.mem.Tick(r.cycle)
	}
	return time.Since(start), nil
}

func l1Cache() *cache.Cache {
	cfg := config.GTX480()
	return cache.MustNew(cfg.L1Size, cfg.L1Assoc, cfg.L1Line)
}

// driveCacheHit times Access on resident lines of an L1-shaped cache.
func driveCacheHit(h *harness, ops int) (time.Duration, error) {
	c := l1Cache()
	line := uint64(config.GTX480().L1Line)
	const resident = 64
	for i := uint64(0); i < resident; i++ {
		c.Fill(i * line)
	}
	rng := xrand.NewRNG(h.opts.seed)
	hits := 0
	start := time.Now()
	for i := 0; i < ops; i++ {
		if c.Access(uint64(rng.Intn(resident)) * line) {
			hits++
		}
	}
	spent := time.Since(start)
	if hits != ops {
		return 0, fmt.Errorf("%d of %d accesses hit", hits, ops)
	}
	return spent, nil
}

// driveCacheMissFill times a missing Access and the Fill (with its
// eviction) that follows, on a streaming address sequence.
func driveCacheMissFill(h *harness, ops int) (time.Duration, error) {
	c := l1Cache()
	line := uint64(config.GTX480().L1Line)
	base := xrand.NewRNG(h.opts.seed).Next() >> 24
	start := time.Now()
	for i := 0; i < ops; i++ {
		addr := (base + uint64(i)) * line
		if !c.Access(addr) {
			c.Fill(addr)
		}
	}
	return time.Since(start), nil
}

// driveMSHR times one MSHR entry's life: Add, then Fill waking its waiter.
func driveMSHR(h *harness, ops int) (time.Duration, error) {
	cfg := config.GTX480()
	m := cache.NewMSHR(cfg.L1MSHRs, cfg.L1Merges)
	woken := 0
	waiter := func(int64) { woken++ }
	base := xrand.NewRNG(h.opts.seed).Next() >> 24
	start := time.Now()
	for i := 0; i < ops; i++ {
		line := base + uint64(i)
		m.Add(line, waiter)
		m.Fill(line, int64(i))
	}
	spent := time.Since(start)
	if woken != ops {
		return 0, fmt.Errorf("%d of %d waiters woken", woken, ops)
	}
	return spent, nil
}

func dramChannel(depth int) *dram.Channel {
	cfg := config.GTX480()
	return dram.NewChannel(cfg.DRAMBanksPerChannel, uint64(cfg.DRAMRowBytes),
		int64(cfg.DRAMRowHit), int64(cfg.DRAMRowMiss), depth)
}

// dramRequests returns n requests over random lines of a 1 GiB region.
func dramRequests(seed uint64, n int) []dram.Request {
	rng := xrand.NewRNG(seed)
	reqs := make([]dram.Request, n)
	for i := range reqs {
		reqs[i].Line = (rng.Next() >> 34) &^ 127
	}
	return reqs
}

// driveDRAMEnqueue times Enqueue into a queue that never fills.
func driveDRAMEnqueue(h *harness, ops int) (time.Duration, error) {
	c := dramChannel(ops)
	reqs := dramRequests(h.opts.seed, ops)
	start := time.Now()
	for i := range reqs {
		c.Enqueue(&reqs[i])
	}
	return time.Since(start), nil
}

// driveDRAMTick times one FR-FCFS arbitration (the Tick that scans the
// queue and grants, plus the Enqueue that refills it) at a steady queue
// depth. The clock jumps a row-miss time per step so every bank is free
// and every Tick performs the full scan.
func driveDRAMTick(depth int) func(*harness, int) (time.Duration, error) {
	return func(h *harness, ops int) (time.Duration, error) {
		c := dramChannel(depth)
		reqs := dramRequests(h.opts.seed, ops+depth)
		for i := 0; i < depth; i++ {
			c.Enqueue(&reqs[i])
		}
		step := int64(config.GTX480().DRAMRowMiss)
		cycle := int64(0)
		granted := 0
		start := time.Now()
		for i := 0; i < ops; i++ {
			cycle += step
			if r, _ := c.Tick(cycle); r != nil {
				granted++
			}
			c.Enqueue(&reqs[depth+i])
		}
		spent := time.Since(start)
		if granted != ops {
			return 0, fmt.Errorf("%d of %d arbitrations granted", granted, ops)
		}
		return spent, nil
	}
}

// driveIcntSend times Network.Send and the wheel cycle that carries the
// clock forward, spreading packets over the SM ports.
func driveIcntSend(h *harness, ops int) (time.Duration, error) {
	cfg := config.GTX480()
	wheel := timing.NewWheel()
	net := icnt.New(wheel, cfg.NumSMs, cfg.L2Partitions, int64(cfg.IcntLatency), cfg.IcntBytesPerCycle)
	delivered := 0
	deliver := func(int64) { delivered++ }
	rng := xrand.NewRNG(h.opts.seed)
	cycle := int64(0)
	start := time.Now()
	for i := 0; i < ops; i++ {
		net.Send(net.SMPort(rng.Intn(cfg.NumSMs)), 8, deliver)
		cycle++
		wheel.Advance(cycle)
	}
	for delivered < ops {
		cycle++
		wheel.Advance(cycle)
	}
	return time.Since(start), nil
}

// driveWheel times an event's life on the timing wheel — scheduled a
// small seeded delay ahead, then fired by Advance — with batch events
// scheduled per call (1 uses Schedule, more use ScheduleBatch, the path
// the lane commit takes).
func driveWheel(batch int) func(*harness, int) (time.Duration, error) {
	return func(h *harness, ops int) (time.Duration, error) {
		wheel := timing.NewWheel()
		fired := 0
		fn := timing.Event(func(int64) { fired++ })
		fns := make([]timing.Event, batch)
		for i := range fns {
			fns[i] = fn
		}
		rng := xrand.NewRNG(h.opts.seed)
		cycle := int64(0)
		start := time.Now()
		for scheduled := 0; scheduled < ops; scheduled += batch {
			at := cycle + 1 + int64(rng.Intn(64))
			if batch == 1 {
				wheel.Schedule(at, fn)
			} else {
				wheel.ScheduleBatch(at, fns)
			}
			cycle++
			wheel.Advance(cycle)
		}
		wheel.Advance(cycle + 65)
		spent := time.Since(start)
		if fired < ops {
			return 0, fmt.Errorf("%d of %d events fired", fired, ops)
		}
		return spent, nil
	}
}

// driveWakeHeap times the per-SM horizon update of the clock loop: Set
// one SM's wake cycle, read the minimum.
func driveWakeHeap(h *harness, ops int) (time.Duration, error) {
	n := config.GTX480().NumSMs
	heap := timing.NewWakeHeap(n)
	rng := xrand.NewRNG(h.opts.seed)
	var sink int64
	start := time.Now()
	for i := 0; i < ops; i++ {
		heap.Set(rng.Intn(n), int64(i)+int64(rng.Intn(512)))
		at, _ := heap.Min()
		sink += at
	}
	spent := time.Since(start)
	if sink < 0 {
		return 0, fmt.Errorf("wake cycles overflowed")
	}
	return spent, nil
}

// ---- serving-side drivers ----

// smallJobs is a handful of quick jobs for the drivers that need real
// keys and results.
func smallJobs(seed uint64) ([]jobs.Job, error) {
	ws, err := seededWorkloads([]string{"aesEncrypt128"}, seed)
	if err != nil {
		return nil, err
	}
	return jobs.Grid(ws, paperSchedulers, 2, gpu.Options{}), nil
}

// driveJobKey times jobs.Key: JSON of config and launch, then SHA-256.
func driveJobKey(h *harness, ops int) (time.Duration, error) {
	js, err := smallJobs(h.opts.seed)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, _, err := jobs.Key(&js[i%len(js)]); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// driveResultCache fills a cache with a few real results and times the
// read path at three depths — Cache.Get, Engine.RunJob on a warm key —
// and the write path, Cache.Put.
func (h *harness) driveResultCache(shrink int) error {
	dir, err := os.MkdirTemp(h.tmp, "rc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	js, err := smallJobs(h.opts.seed)
	if err != nil {
		return err
	}
	eng, err := jobs.New(1, dir, nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	results, err := eng.Run(ctx, js)
	if err != nil {
		return err
	}
	keys := make([]string, len(js))
	var bytes int64
	for i := range js {
		if keys[i], _, err = eng.Key(&js[i]); err != nil {
			return err
		}
		fi, err := os.Stat(filepath.Join(dir, keys[i]+".json"))
		if err != nil {
			return err
		}
		bytes += fi.Size()
	}
	h.sample("resultcache.entry_bytes", float64(bytes)/float64(len(js)))

	ops := 2000 / shrink
	if ops < 1 {
		ops = 1
	}
	perOpUS := func(name string, op func(i int) error) error {
		return h.repeat(name, ops, 1e-3, func() (time.Duration, error) {
			start := time.Now()
			for i := 0; i < ops; i++ {
				if err := op(i); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		})
	}
	if err := perOpUS("resultcache.get_us", func(i int) error {
		if _, ok := eng.Cache.Get(keys[i%len(keys)]); !ok {
			return fmt.Errorf("warm key missed")
		}
		return nil
	}); err != nil {
		return err
	}
	if err := perOpUS("jobs.runjob_warm_us", func(i int) error {
		_, fromCache, err := eng.RunJob(ctx, &js[i%len(js)])
		if err == nil && !fromCache {
			err = fmt.Errorf("warm job was simulated")
		}
		return err
	}); err != nil {
		return err
	}
	// Fresh keys, so every Put writes a new entry (temp file + rename).
	fresh, err := resultcache.Open(filepath.Join(dir, "put"))
	if err != nil {
		return err
	}
	n := 0
	return perOpUS("resultcache.put_us", func(i int) error {
		n++
		key, err := fresh.Key(n)
		if err != nil {
			return err
		}
		return fresh.Put(key, results[i%len(results)])
	})
}
