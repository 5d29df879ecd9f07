// Package cli is the flag layer prosim's subcommands share: it declares
// the harness flags once, each subcommand passing its own defaults, and
// builds what they imply — the logger, the job runner (a local engine,
// a prosimd client or a cluster coordinator) and the CPU and heap
// profiles.
//
// A tool calls New, declares its own flags on Harness.Flags, then
// Parse, Runner, its work, and Finish. Every error goes through Fatal,
// which prefixes the tool's name and exits 1.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Spec selects which shared flags a tool declares and their defaults.
// Every tool gets -maxtbs, -log-level and -log-json, and -cache unless
// NoCache.
type Spec struct {
	// OneJob is for tools that run exactly one simulation: they get no
	// -jobs (an engine never runs more workers than a batch has jobs)
	// and no -quiet (they report no progress).
	OneJob bool
	// Quiet is the default of -quiet.
	Quiet bool
	// Priority, when non-empty, declares -daemon and -workers and is the
	// scheduling class (daemon.PriorityInteractive or PriorityBulk) every
	// batch they send carries.
	Priority string
	// Profile declares -cpuprofile and -memprofile.
	Profile bool
	// NoCache is for a tool that must never read or write a result
	// cache: it gets no -cache, and Runner's engine has none.
	NoCache bool
}

// Harness holds the shared flags and, once Runner has run, the runner
// they describe.
type Harness struct {
	// Flags is the tool's flag set; declare tool-specific flags on it
	// before Parse.
	Flags *flag.FlagSet
	// MaxTBs (-maxtbs) and Cache (-cache) are set by Parse.
	MaxTBs int
	Cache  string

	// Engine is the local engine Runner built, nil on the -daemon and
	// -workers paths; Client is the daemon client with -daemon.
	Engine *jobs.Engine
	Client *daemon.Client

	name                   string
	jobs                   int
	quiet                  bool
	daemon, workers        string
	priority               string
	cpuprofile, memprofile string
	logCfg                 *obs.LogConfig
	log                    *slog.Logger
	cpuFile                *os.File
}

// New declares the flags spec selects on a fresh flag set called name
// (which also prefixes every Fatal message).
func New(name string, spec Spec) *Harness {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	// A tool without -quiet reports no progress.
	h := &Harness{Flags: fs, name: name, quiet: true, priority: spec.Priority}
	fs.IntVar(&h.MaxTBs, "maxtbs", 0, "shrink grids to at most this many TBs (0 = full)")
	if !spec.NoCache {
		fs.StringVar(&h.Cache, "cache", "", "result-cache directory (optional; makes warm re-runs instant)")
	}
	h.logCfg = obs.LogFlags(fs)
	if !spec.OneJob {
		fs.IntVar(&h.jobs, "jobs", runtime.NumCPU(), "parallel simulation workers")
		fs.BoolVar(&h.quiet, "quiet", spec.Quiet, "suppress per-run progress (stderr)")
	}
	if spec.Priority != "" {
		fs.StringVar(&h.daemon, "daemon", "", "run simulations on a prosimd daemon at this address (host:port or unix:/path) instead of locally")
		fs.StringVar(&h.workers, "workers", "", "fan simulations out across these comma-separated prosimd addresses (-cache is the merge cache they share)")
	}
	if spec.Profile {
		fs.StringVar(&h.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&h.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	}
	return h
}

// Parse parses args and checks everything that can be checked before a
// simulation runs: the log flags and -daemon against -workers. It then
// starts the CPU profile, if asked.
func (h *Harness) Parse(args []string) {
	h.Flags.Parse(args)
	log, err := h.logCfg.Setup()
	if err != nil {
		h.Fatal(err)
	}
	h.log = log
	if h.daemon != "" && h.workers != "" {
		h.Fatal(errors.New("-daemon and -workers are mutually exclusive"))
	}
	if h.cpuprofile != "" {
		f, err := os.Create(h.cpuprofile)
		if err != nil {
			h.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			h.Fatal(err)
		}
		h.cpuFile = f
	}
}

// Runner builds the job runner the flags describe: a prosimd client
// with -daemon, a cluster coordinator over -workers, and otherwise a
// local engine of -jobs workers on -cache. Progress goes to stderr
// unless -quiet.
func (h *Harness) Runner() jobs.Runner {
	var progress func(jobs.Event)
	if !h.quiet {
		progress = jobs.PrintProgress(os.Stderr)
	}
	switch {
	case h.daemon != "":
		c, err := daemon.Dial(h.daemon)
		if err != nil {
			h.Fatal(err)
		}
		c.Progress, c.Priority = progress, h.priority
		h.Client = c
		return c
	case h.workers != "":
		var addrs []string
		for _, a := range strings.Split(h.workers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		coord, err := cluster.New(cluster.Config{
			Workers:  addrs,
			CacheDir: h.Cache,
			Priority: h.priority,
			Log:      h.log,
		})
		if err != nil {
			h.Fatal(err)
		}
		coord.OnProgress = progress
		return coord
	}
	eng, err := jobs.New(h.jobs, h.Cache, progress)
	if err != nil {
		h.Fatal(err)
	}
	h.Engine = eng
	return eng
}

// Finish runs after the tool's work: it writes the heap profile and
// stops the CPU profile.
func (h *Harness) Finish() {
	if h.memprofile != "" {
		f, err := os.Create(h.memprofile)
		if err != nil {
			h.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			h.Fatal(err)
		}
		if err := f.Close(); err != nil {
			h.Fatal(err)
		}
	}
	if h.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := h.cpuFile.Close(); err != nil {
			h.Fatal(err)
		}
	}
}

// Workload looks up a Table II kernel and shrinks its grid to -maxtbs.
func (h *Harness) Workload(kernel string) *workloads.Workload {
	w, err := workloads.ByKernel(kernel)
	if err != nil {
		h.Fatal(err)
	}
	if h.MaxTBs > 0 {
		w = w.Shrunk(h.MaxTBs)
	}
	return w
}

// Fatal prints err after the tool's name on stderr and exits 1.
func (h *Harness) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", h.name, err)
	os.Exit(1)
}
