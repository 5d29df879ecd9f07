// Package obs is the runtime telemetry subsystem: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text exposition, and a structured-logging setup helper on
// log/slog shared by every cmd/ tool.
//
// The registry is deliberately tiny — no external client library, no
// background goroutines, no metric expiry. Every metric is a fixed
// atomic cell created once (Counter/Gauge/Histogram are get-or-create
// by full name, so concurrent daemons in one process share series
// instead of colliding) and read lock-free on the hot path. The
// simulator's own loops are never instrumented: the layers above it
// (job engine, daemon, result cache) count work at job granularity.
//
// Metric names follow Prometheus conventions: snake_case families
// with a subsystem prefix (prosimd_, jobs_, resultcache_) and
// optional constant labels given inline in the name, e.g.
//
//	obs.NewCounter(`prosimd_rejected_total{reason="queue"}`, "...")
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric cell.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters
// never go down).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric cell that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in increasing order; an implicit +Inf bucket always exists.
// Observations are lock-free: one atomic add in the matching bucket
// plus a CAS loop folding the value into the float64 sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefBuckets is the default latency bucket ladder in seconds — the
// same spread the Prometheus client library defaults to, wide enough
// for sub-millisecond cache hits and multi-minute simulations.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 300}

// metricKind tags a registered series for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one registered time series: a family name, optional
// constant labels, and its cell.
type series struct {
	family string // name without labels
	labels string // `k="v",k2="v2"` or ""
	help   string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics and renders them. The zero value is
// ready to use; most code uses the package-level Default registry.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*series
	order  []string // registration order of full names
}

// Default is the process-wide registry the package-level constructors
// use.
var Default = &Registry{}

// splitName separates an inline-labeled metric name into family and
// label body: `a_total{k="v"}` -> ("a_total", `k="v"`).
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// register returns the existing series for name or creates one via
// make. It panics when name is already registered as a different
// kind — that is a programming error, not a runtime condition.
func (r *Registry) register(name, help string, kind metricKind, mk func() *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]*series)
	}
	if s, ok := r.byName[name]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return s
	}
	s := mk()
	s.family, s.labels = splitName(name)
	s.help = help
	s.kind = kind
	r.byName[name] = s
	r.order = append(r.order, name)
	return s
}

// Counter returns the counter registered under name (get-or-create).
// name may carry inline constant labels: `x_total{path="/v1/batch"}`.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func() *series {
		return &series{c: &Counter{}}
	}).c
}

// Gauge returns the gauge registered under name (get-or-create).
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, func() *series {
		return &series{g: &Gauge{}}
	}).g
}

// Histogram returns the histogram registered under name
// (get-or-create). buckets are increasing upper bounds; nil means
// DefBuckets. The bucket layout of the first registration wins.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, func() *series {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		h := &Histogram{bounds: bounds}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		return &series{h: h}
	}).h
}

// snapshot returns the registered series sorted by family then label
// set, so exposition is deterministic regardless of registration
// order.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*series, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// Package-level constructors on the Default registry (get-or-create,
// like the Registry methods).

// NewCounter returns the Default-registry counter for name.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge returns the Default-registry gauge for name.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewHistogram returns the Default-registry histogram for name.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.Histogram(name, help, buckets)
}

// Labeled composes a metric name with one inline constant label,
// quoting the value (Prometheus label values may contain anything):
// Labeled("prosimd_rejected_total", "reason", reason). Callers with a
// bounded label set use it with the get-or-create constructors to make
// one series per label value.
func Labeled(family, key, value string) string {
	return fmt.Sprintf("%s{%s=%q}", family, key, value)
}
