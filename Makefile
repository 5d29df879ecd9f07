# Developer / CI entry points. `make check` is the gate every change
# must pass: gofmt, go vet, the full test suite once under the race
# detector (never from the test cache; the fast-path differential test
# runs only its naive and all-on grids there), the fast-path differential
# test's five grids without the race detector, the results/ regeneration
# check and a compile check of the bench harness. The per-surface -race
# gates (sleeptest … clustertest) run subsets of what race already runs;
# they stay as targets for a focused run of one surface, and runcheck (in
# check) proves each focused -run pattern still names its tests.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet fmt runcheck race fastpath sleeptest issuetest retrytest identity pairs fuzz benchbuild daemontest servetest obstest clustertest admissiontest flighttest results-check check bench profile profile-grid profile-serve report papercheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The formatting gate: fails listing every Go file (bench/ included)
# that gofmt would rewrite.
fmt:
	@out=$$($(GOFMT) -l .); test -z "$$out" || { echo "gofmt would reformat:"; echo "$$out"; exit 1; } >&2

race:
	$(GO) test -race -count=1 ./...

# The bit-identity oracle for the simulation fast paths: every fast-path
# combination must reproduce the naive engine's results byte for byte.
# A prerequisite of check: under -race, race runs only the naive grid
# against the all-on one, so the three single-path grids run here,
# without the race detector (about 20 s on 2 vCPUs).
fastpath:
	$(GO) test -run TestFastPathEquivalence -count=1 ./prosim

# The wake-source gate for event-driven structural stalls (DESIGN.md
# §8.3): an SM asleep on a refused load, a refused store, SFU saturation
# or the LD/ST busy window must tick on exactly the cycle its un-slept
# twin makes progress, with identical per-slot stalls; a fill with an
# empty LD/ST unit must not wake a Scoreboard sleeper; and the stall
# ledger must balance at every sample. Under -race like the other gates:
# the wake callbacks fire from wheel events and memory-system
# notifications, and the detector proves nothing else reaches an SM.
sleeptest_RUN = TestSleepsThrough|TestFillWithEmptyLDSTUnit|TestStallAccountingInvariant
sleeptest_PKGS = ./internal/engine ./internal/gpu
sleeptest:
	$(GO) test -race -count=1 -run '$(sleeptest_RUN)' $(sleeptest_PKGS)

# The issue-board gate (DESIGN.md §8.4, §8.1): on seeded random programs,
# under policies whose hooks return every order hint — rotate, a new head
# the engine honours and one it must refuse, rebuild, and rebuilds on
# barrier release — every slot-cycle must pick the warp and the stall
# class a plain walk over the policy's own Order() picks, with a wake
# horizon no later than that walk's; GTO's order, with its greedy warp
# listed twice, must still read greedy-then-oldest at first occurrences;
# and every registered policy must be served from the order cache, not
# rebuilt every cycle. (The >64-warps-per-slot rows that make the masks
# multi-word run in fastpath, and under -race in race.)
issuetest_RUN = TestIssueBoard|TestGTOGreedyFirstThenOldest|TestLRROrderRotates|TestTLDoesNotDemoteOnALUIssue|TestEveryPolicyIsServedFromTheOrderCache
issuetest_PKGS = ./internal/engine ./internal/sched ./internal/schedreg
issuetest:
	$(GO) test -race -count=1 -run '$(issuetest_RUN)' $(issuetest_PKGS)

# The exactness gate for the memory side of §8.3: a refused L2 re-poll
# settled by an MSHR stamp must be a re-poll the probe would have refused
# (property test against a map model), re-polls batched onto one wheel
# event must fire in the order one event each would (twin-wheel property
# test, ParkAll runs included), the MSHR line table must answer as a map
# does and the per-bank DRAM queues must grant as the whole-queue scan did
# (both against a model kept in the test), and together they must leave a
# retry storm's every delivery cycle and counter where the commit before
# them had it (pinned golden), with re-polls outnumbering wheel events and
# skipping the tag probe.
retrytest_RUN = TestMSHRStampSound|TestMSHRTableMatchesMapModel|TestTrain|TestChannelMatchesReferenceScan|TestRetryStormGolden|TestCheapRepoll
retrytest_PKGS = ./internal/cache ./internal/timing ./internal/dram ./internal/memsys
retrytest:
	$(GO) test -race -count=1 -run '$(retrytest_RUN)' $(retrytest_PKGS)

# The one command a bit-identical-by-construction PR cites:
# `make identity BASE=<ref>` builds cmd/prosim from BASE (a `git archive`
# export in a temp dir, so nothing is left behind in .git) and from this
# tree, simulates all 25 Table II kernels under the nine schedulers at
# full grid into two fresh result caches and `diff -r`s them. An entry is
# the whole KernelResult (cycles, stalls, memory counters) under its
# jobs.Key, so a changed key shows as a missing file and a changed result
# as a differing one; any difference fails the target.
# schedreg's TestIdentitySchedulersMatchRegistry keeps the list equal to
# schedreg.All().
IDENTITY_SCHEDS := TL,LRR,GTO,PRO,PRO-nobar,PRO-adaptive,PRO-norm,CAWS-lite,OWL-lite
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<git ref>" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/prosim-base" ./cmd/prosim); \
	$(GO) build -o "$$tmp/prosim-tree" ./cmd/prosim; \
	"$$tmp/prosim-base" -all -sched $(IDENTITY_SCHEDS) -cache "$$tmp/cache-base" >"$$tmp/out-base"; \
	"$$tmp/prosim-tree" -all -sched $(IDENTITY_SCHEDS) -cache "$$tmp/cache-tree" >"$$tmp/out-tree"; \
	diff -r "$$tmp/cache-base" "$$tmp/cache-tree"; cmp "$$tmp/out-base" "$$tmp/out-tree"; \
	echo "identity: $$(find "$$tmp/cache-tree" -type f | wc -l) result-cache entries and the printed table identical to $(BASE)"

# ROADMAP's pairs protocol in one command: `make pairs BASE=<ref>
# WORKLOAD=<name> N=10 SEED=1` builds bench/ from a `git archive` export
# of BASE and from this working tree, runs N pairs of the one workload
# (which side goes first alternates), each binary from its own tree's
# bench/ directory, and prints for every end-to-end metric of
# BENCHMARK.json that the workload reports (and the failed-operation
# count): each side's median and q1-q3, the change/base ratio of the
# medians, the pairs the change won in the metric's better direction, and
# whether the medians lie further apart than the base's IQR. Runs and
# binaries stay in a temp dir; about N x 2 x 15 s.
N ?= 10
SEED ?= 1
pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make pairs BASE=<git ref> WORKLOAD=<name> [N=10] [SEED=1]" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base/bench" && $(GO) build -o "$$tmp/bench-base" .); \
	(cd bench && $(GO) build -o "$$tmp/bench-change" .); \
	run() { \
		(cd "$$2" && "$$tmp/bench-$$1" -workload "$(WORKLOAD)" -seed "$(SEED)" >"$$tmp/out" 2>"$$tmp/err") || \
			echo "$$1 run $$i exited non-zero; see its failed count" >&2; \
		tail -n 1 "$$tmp/out" >"$$tmp/last"; \
		{ sed -n 's/.*"failed":\([0-9]*\).*/failed \1/p' "$$tmp/last"; \
		  sed 's/.*"metrics":{//; s/}}$$//' "$$tmp/last" | tr '}' '\n' | \
		  sed -n 's/^,\{0,1\}"\([a-z0-9_]*\)":{"value":\([^,]*\),.*/\1 \2/p'; } | \
			sed "s/^/$$1 $$i /" >>"$$tmp/runs"; \
	}; \
	i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then run base "$$tmp/base/bench"; run change bench; \
		else run change bench; run base "$$tmp/base/bench"; fi; \
		echo "pairs: $$i of $(N) done" >&2; i=$$((i + 1)); \
	done; \
	echo "$(WORKLOAD), seed $(SEED): $(N) pairs, base $(BASE) vs this tree"; \
	awk "$$PAIRS_AWK" BENCHMARK.json "$$tmp/runs"

# The table `make pairs` prints, from BENCHMARK.json (the end-to-end
# metrics and their better direction) and the runs (side, pair, metric,
# value): quartiles interpolate linearly between the sorted runs.
define PAIRS_AWK
function load(side, m, a,   i, j, n, t) {
	n = 0
	for (i = 1; i <= np; i++) if ((side, m, i) in v) a[++n] = v[side, m, i] + 0
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
	return n
}
function q(a, n, p,   h, l) {
	h = (n - 1) * p + 1; l = int(h)
	return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
}
FNR == 1 { file++ }
file == 1 && /"end_to_end"/ { e2e = 1; next }
file == 1 && e2e && /^ *\]/ { e2e = 0 }
file == 1 && e2e && /"name"/ { split($$0, f, "\""); name = f[4]; order[++nm] = name }
file == 1 && e2e && /"better"/ { split($$0, f, "\""); better[name] = f[4] }
file == 1 { next }
{ v[$$1, $$3, $$2] = $$4; seen[$$3] = 1; if ($$2 + 0 > np) np = $$2 + 0 }
END {
	order[++nm] = "failed"; better["failed"] = "lower"
	printf "%-18s %-34s %-34s %7s %6s  %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "won", "apart > base IQR"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		if (!(m in seen)) continue
		nb = load("base", m, b); nc = load("change", m, c); won = 0
		for (i = 1; i <= np; i++) if ((("base", m, i) in v) && (("change", m, i) in v)) {
			x = v["base", m, i] + 0; y = v["change", m, i] + 0
			if (better[m] == "lower" ? y < x : y > x) won++
		}
		bm = q(b, nb, .5); cm = q(c, nc, .5); iqr = q(b, nb, .75) - q(b, nb, .25)
		d = cm - bm; if (d < 0) d = -d
		printf "%-18s %-34s %-34s %7s %6s  %s\n", m, \
			sprintf("%.4g [%.4g, %.4g]", bm, q(b, nb, .25), q(b, nb, .75)), \
			sprintf("%.4g [%.4g, %.4g]", cm, q(c, nc, .25), q(c, nc, .75)), \
			(bm != 0 ? sprintf("%.3f", cm / bm) : "-"), won "/" np, (d > iqr ? "yes" : "no")
	}
}
endef
export PAIRS_AWK

# Fuzz every untrusted-input boundary (the daemon's /v1/batch splitter
# and wire-job decoder, the client's response-line decoder and request
# appender, the result cache's entry decoder, the kernel text parser)
# for 10 s each, one after the other (-fuzz takes one target per run);
# each entry is package:target. The seeds also run under plain `go test`.
FUZZ_TARGETS := daemon:FuzzSplitBatch daemon:FuzzWireJobToJob daemon:FuzzDecodeEvent daemon:FuzzAppendBatch resultcache:FuzzCacheEntry isa:FuzzParse
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 10s ./internal/$${t%%:*}; \
	done

# The benchmark harness must always compile: bench/ is a nested module
# importing repro/internal/... that root `go build ./...` and
# `go test ./...` never see, so pruning an internal name breaks it with
# tier-1 green. (The per-layer rungs are _test.go files of their
# packages, so `go vet ./...` in check already compiles them.)
benchbuild:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The daemon's concurrency surface (singleflight dedupe, NDJSON stream
# fan-in, graceful drain) under the race detector, re-run every time:
# these tests exercise real sockets and a re-exec'd daemon process, so
# they must not be satisfied from the test cache.
daemontest:
	$(GO) test -race -count=1 ./internal/daemon ./cmd/prosimd

# The warm-path gate (DESIGN.md §9.5) under the race detector, re-run
# every time: a daemon that keeps its decoded-request memo must answer a
# seeded request stream exactly as a fresh daemon per request does
# (mutation-checked), another encoding of a job must miss the memo and
# land on the same key, a memoised factory job must re-simulate to the
# same result, /v1/batch's bytes are pinned against the commit before
# the memo, the one-pass body read must answer a corpus of bodies as the
# streaming decoder did (mutation-checked) and the splitter may only
# accept what that decoder accepts, the result cache's decoded front
# must count, evict and bypass as a disk hit would, and its entry
# decoder must hit exactly on a valid envelope (fuzz seeds);
# on the client, the request appender must write json.Marshal's bytes for
# every grid request and every field (a field-drift guard), and reading a
# table of response streams must end as the json.Decoder loop it replaced
# did (mutation-checked), the line decoder only accepting what
# json.Unmarshal decodes alike (fuzz seeds).
servetest_RUN = TestMemo|TestReencodedJob|TestBatchWireFormatPinned|TestBatchReadMatchesReference|FuzzSplitBatch|FuzzWireJobToJob|FuzzCacheEntry|TestFront|TestCorruptEntryFallsBackToMiss|TestKeyMatchesCachedEntries|TestAppendBatchMatchesMarshal|TestCodecCoversEveryField|TestFastDecoderTakesDaemonLines|TestRunMatchesReferenceOnStreams|TestRunRejectsEmptyJobResult|FuzzDecodeEvent|FuzzAppendBatch
servetest_PKGS = ./internal/daemon ./internal/resultcache ./internal/jobs
servetest:
	$(GO) test -race -count=1 -run '$(servetest_RUN)' $(servetest_PKGS)

# Telemetry smoke under the race detector: the /metrics acceptance test
# (valid Prometheus exposition after real work), the /metrics + pprof
# debug mux and the heartbeat bit-identity gate.
obstest_RUN = TestMetricsEndpointServesPrometheus|TestDebugHandlerServesMetricsAndPprof|TestHeartbeat
obstest_PKGS = ./internal/daemon ./internal/obs ./internal/gpu
obstest:
	$(GO) test -race -count=1 -run '$(obstest_RUN)' $(obstest_PKGS)

# The admission surface under the race detector, re-run every time:
# admission control (429/413 + Retry-After), the one FIFO slot queue (a
# cached job completes with every slot held, batches get slots in
# admission order, a legacy batch "priority" changes nothing), the
# documented-routes-only table, wire compatibility with daemons that
# still send the removed tenancy, cache-tier, cache-GC and per-class
# queue stats fields, and the singleflight / fan-out / socket-takeover
# regression tests.
admissiontest_RUN = TestLeaderDisconnect|TestFullQueue|TestOversizeBatch|TestOversizeBody|TestCachedJobSkipsHeldSlots|TestSlotsGrantedInAdmissionOrder|TestLegacyBatchPriorityIgnored|TestLargeBatchBounded|TestHandlerServesOnlyDocumentedRoutes|TestStatsAndHealthReject|TestListenRefuses|TestClientSurfacesOverload|TestStatsWireCompat
admissiontest_PKGS = ./internal/daemon
admissiontest:
	$(GO) test -race -count=1 -run '$(admissiontest_RUN)' $(admissiontest_PKGS)

# The flight-recorder gate under the race detector, re-run every time:
# the bit-identity differential (recorder on vs off for every
# scheduler), the disabled-path
# zero-allocation pin, the cache-key kill switch, the ring unit tests
# and the structural validation of the Perfetto and NDJSON exports, and
# `prosim flight` keeping an existing -out file when it rejects its
# arguments.
flighttest_RUN = TestFlight
flighttest_PKGS = ./internal/flight ./internal/gpu ./internal/engine ./internal/jobs ./cmd/prosim
flighttest:
	$(GO) test -race -count=1 -run '$(flighttest_RUN)' $(flighttest_PKGS)

# The focused gates' guard: every alternative of a -run pattern above must
# name a Test or Fuzz function in that gate's packages, or a renamed or
# deleted test leaves its gate green while it runs nothing.
FOCUSED = sleeptest issuetest retrytest servetest obstest admissiontest flighttest
runcheck:
	@status=0; $(foreach g,$(FOCUSED),names=$$(sed -n 's/^func \(\(Test\|Fuzz\)[A-Za-z0-9_]*\).*/\1/p' $(addsuffix /*_test.go,$($(g)_PKGS))); \
	for alt in $$(echo '$($(g)_RUN)' | tr '|' ' '); do \
		echo "$$names" | grep -qE -- "$$alt" || { echo "$(g): -run alternative $$alt names no Test or Fuzz function in $($(g)_PKGS)" >&2; status=1; }; \
	done;) exit $$status

# The sweep cluster under the race detector, re-run every time: the
# acceptance test spins up three in-process daemons sharing a cache,
# kills one mid-batch and asserts the assembled suite is byte-identical
# to a serial run, and a worker whose drain expires mid-job must have its
# aborted job requeued — real sockets and timing, so no test-cache reuse.
clustertest:
	$(GO) test -race -count=1 ./internal/cluster

# The committed results/ against the code: regenerate every paper
# artifact (`prosim report -out`) and the claim check (`prosim
# papercheck`) at full grids into a temp dir on a fresh result cache, and
# cmp each against its committed copy in results/. Nothing else checks
# that results/ still says what the code computes. A cold run takes
# about 25 s on 2 vCPUs; the binary, cache and outputs stay in the temp
# dir.
results-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/prosim" ./cmd/prosim; \
	"$$tmp/prosim" report -quiet -out "$$tmp/out" -cache "$$tmp/cache" >/dev/null; \
	"$$tmp/prosim" papercheck -cache "$$tmp/cache" >"$$tmp/out/papercheck.txt"; \
	for f in "$$tmp"/out/*; do cmp "results/$${f##*/}" "$$f"; done; \
	echo "results-check: $$(ls "$$tmp/out" | wc -l) files in results/ match the code"

check: fmt vet runcheck race fastpath results-check benchbuild

# The per-layer measurement rungs, 5 repetitions with allocation counts,
# to stdout: SMTickPipelineStall and SMTickIssue (internal/engine),
# WideGPU (internal/gpu), L2RetryStorm (internal/memsys) and ChannelTick
# at queue depth 4 and 32 (internal/dram). Regressions are judged by
# bench/ (BENCHMARK.json); these locate them in a layer.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count=5 ./internal/engine ./internal/gpu ./internal/memsys ./internal/dram

# CPU + heap profiles of the paper grid (all kernels, the four headline
# schedulers) into results/, for digging into where a simulated cycle's
# wall time goes: `go tool pprof results/cpu.pprof`.
profile:
	@mkdir -p results
	$(GO) run ./cmd/prosim -all -maxtbs 128 \
		-cpuprofile results/cpu.pprof -memprofile results/mem.pprof
	@echo "profiles written: results/cpu.pprof results/mem.pprof"

# The layer-share table of one benchmark grid, regenerated instead of
# pasted: `make profile-grid WORKLOAD=compute|memory` profiles cmd/prosim
# (one worker, the four headline schedulers) over the four kernels of
# bench's compute_grid (full grids) or memory_grid (128 TBs) and prints
# the merged `pprof -top` of three repetitions (a single one is ~1.3 s of
# samples, too few for stable shares); the profiles stay in a temp dir.
GRID_compute := cenergy MonteCarloOneBlockPerOption sha1_overlap aesEncrypt128
GRID_memory := bpnn_layerforward bpnn_adjust_weights_cuda mergeHistogram64Kernel scalarProdGPU
MAXTBS_memory := -maxtbs 128
profile-grid:
	@test -n "$(GRID_$(WORKLOAD))" || { echo "usage: make profile-grid WORKLOAD=compute|memory" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/prosim" ./cmd/prosim; \
	for k in $(GRID_$(WORKLOAD)); do for rep in 1 2 3; do \
		"$$tmp/prosim" -kernel $$k $(MAXTBS_$(WORKLOAD)) -jobs 1 -cpuprofile "$$tmp/$$k.$$rep.pprof" >/dev/null; \
	done; done; \
	$(GO) tool pprof -top -nodecount=40 "$$tmp/prosim" "$$tmp"/*.pprof

# The serving twin of profile-grid: the layer-share table of the warm
# path (DESIGN.md §9.5), regenerated instead of pasted. Profiles
# BenchmarkServeWarm — client and in-process daemon together, one-job
# and 25-job requests over a pre-filled cache — and prints its ns/job and
# allocs/job, then who the request handler, its per-job workers and the
# client spend their samples in (`pprof -peek`: request decode, memo,
# engine, emit; the client's request append `encodeBatch`, response read
# `readEvents` and its line decoder `decodeEvent`), then the process-wide
# lines a peek cannot show (syscalls, GC, malloc). Shares are of all
# samples, the benchmark's own cache pre-fill included (~10 %). The
# profile stays in a temp dir.
SERVE_PEEK := daemon\.\(\*Daemon\)\.(readBatch|serveBatch(\.func[12])?|runJob|decodeJob)$$|daemon\.splitBatch$$|daemon\.\(\*Client\)\.Run$$|daemon\.(encodeBatch|readEvents|decodeEvent)$$|jobs\.\(\*Engine\)\.runOne$$
profile-serve:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -run '^$$' -bench ServeWarm -benchtime 5000x -o "$$tmp/daemon.test" \
		-cpuprofile "$$tmp/cpu.pprof" ./internal/daemon; \
	$(GO) tool pprof -peek '$(SERVE_PEEK)' "$$tmp/daemon.test" "$$tmp/cpu.pprof" | grep -v '^ *$$'; \
	$(GO) tool pprof -top -cum -nodecount=400 "$$tmp/daemon.test" "$$tmp/cpu.pprof" | \
		grep -E 'flat%|Syscall6$$|gcBgMarkWorker$$|mallocgc$$|gpu\.RunContext$$'

# Regenerate every paper artifact into results/ using all cores and a
# local result cache (warm re-runs are nearly instant).
report:
	$(GO) run ./cmd/prosim report -out results -cache .simcache

papercheck:
	$(GO) run ./cmd/prosim papercheck -cache .simcache
