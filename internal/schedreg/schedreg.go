// Package schedreg is the registry of named warp-scheduling policies.
// It maps the names used throughout the evaluation harness (TL, LRR,
// GTO, PRO and the PRO ablations) to engine.Factory constructors, so
// that both the public prosim facade and the internal job engine can
// resolve policies without depending on each other.
//
// A policy *name* is also a stable identity: the result cache keys
// simulations by it, so a name must always construct the same policy
// with the same parameters. Parameterized factories (e.g. PRO with a
// non-default threshold) are not named here; callers pass an explicit
// factory plus their own cache discriminator instead.
package schedreg

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
)

// Names lists the four policies of the paper's comparison in its
// comparison order (Fig. 4, Table III).
func Names() []string { return []string{"TL", "LRR", "GTO", "PRO"} }

// All lists every registered policy name, the paper's four first.
func All() []string {
	return []string{"TL", "LRR", "GTO", "PRO",
		"PRO-nobar", "PRO-adaptive", "PRO-norm", "CAWS-lite", "OWL-lite"}
}

// New returns the factory for a named policy. Recognized names: LRR,
// GTO, TL, PRO, PRO-nobar (the barrier-handling ablation of Sec. IV),
// PRO-adaptive (the paper's future-work online profiler that toggles
// barrier handling per SM), PRO-norm (the Sec. III-A normalized-progress
// variant), CAWS-lite and OWL-lite (related-work baselines).
func New(name string) (engine.Factory, error) {
	switch name {
	case "LRR":
		return sched.NewLRR, nil
	case "GTO":
		return sched.NewGTO, nil
	case "TL":
		return sched.NewTL, nil
	case "PRO":
		return core.New(), nil
	case "PRO-nobar":
		return core.New(core.WithoutBarrierHandling()), nil
	case "PRO-adaptive":
		return core.New(core.WithAdaptiveBarrierHandling(0, 0)), nil
	case "PRO-norm":
		return core.New(core.WithNormalizedProgress()), nil
	case "CAWS-lite":
		return sched.NewCAWSLite, nil
	case "OWL-lite":
		return sched.NewOWLLite, nil
	default:
		return nil, fmt.Errorf("schedreg: unknown scheduler %q", name)
	}
}

// Resolve turns a scheduler *spec* into a factory. A spec is either a
// registered policy name ("PRO", "GTO", ...) or a parameterized
// PRO-family form: the base name followed by "+"-separated options,
// matching the FactoryKey strings the harnesses already use as cache
// identities — e.g. "PRO+threshold=500" (prosim sweep's threshold sweep)
// or "PRO+ordertrace+threshold=default" (the Table IV trace).
//
// Recognized options: "threshold=<cycles|default>" sets the re-sort
// interval; "ordertrace" records Table IV order samples on SM 0. Only
// PRO, PRO-nobar and PRO-norm accept options.
//
// Resolve is what lets a job cross a process boundary: a wire job names
// its policy by spec, the daemon resolves the spec to a factory, and
// because the spec doubles as the FactoryKey, the daemon-side cache key
// is byte-identical to the one a local run would compute.
func Resolve(spec string) (engine.Factory, error) {
	parts := strings.Split(spec, "+")
	if len(parts) == 1 {
		return New(spec)
	}
	var opts []core.Option
	switch parts[0] {
	case "PRO":
	case "PRO-nobar":
		opts = append(opts, core.WithoutBarrierHandling())
	case "PRO-norm":
		opts = append(opts, core.WithNormalizedProgress())
	default:
		return nil, fmt.Errorf("schedreg: scheduler %q does not accept %q options", parts[0], spec)
	}
	for _, tok := range parts[1:] {
		switch {
		case tok == "ordertrace":
			opts = append(opts, core.WithOrderTrace())
		case strings.HasPrefix(tok, "threshold="):
			v := strings.TrimPrefix(tok, "threshold=")
			if v == "default" {
				continue
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("schedreg: bad threshold in spec %q", spec)
			}
			opts = append(opts, core.WithThreshold(n))
		default:
			return nil, fmt.Errorf("schedreg: unknown option %q in spec %q", tok, spec)
		}
	}
	return core.New(opts...), nil
}
