package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs/obstest"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := &Registry{}
	c := r.Counter("x_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", "a counter"); again != c {
		t.Fatal("get-or-create returned a different counter cell")
	}

	g := r.Gauge("depth", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}

	// Nil cells are inert, so optional instrumentation needs no guards.
	var nc *Counter
	nc.Add(1)
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := &Registry{}
	r.Counter("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("dual", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := &Registry{}
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+5+50; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Cumulative buckets: le=0.1 holds 0.05 and 0.1 (le is inclusive),
	// le=1 adds 0.5, le=10 adds 5, +Inf adds 50.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusIsValidAndStable(t *testing.T) {
	r := &Registry{}
	r.Counter(`http_requests_total{path="/v1/batch"}`, "requests").Add(3)
	r.Counter(`http_requests_total{path="/v1/stats"}`, "requests").Add(1)
	r.Gauge("inflight", "running jobs").Set(2)
	r.GaugeFunc("uptime_seconds", "uptime", func() float64 { return 12.5 })
	r.Histogram(`lat_seconds{path="/v1/batch"}`, "latency", []float64{0.5}).Observe(0.2)

	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition not stable across scrapes")
	}
	obstest.ValidatePrometheus(t, a.String())
	out := a.String()
	// Labeled series of one family share a single HELP/TYPE pair.
	if strings.Count(out, "# TYPE http_requests_total counter") != 1 {
		t.Errorf("family TYPE emitted other than once:\n%s", out)
	}
	if !strings.Contains(out, `http_requests_total{path="/v1/batch"} 3`) {
		t.Errorf("missing labeled counter sample:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_bucket{path="/v1/batch",le="0.5"} 1`) {
		t.Errorf("histogram label body must precede le:\n%s", out)
	}
	if !strings.Contains(out, "uptime_seconds 12.5") {
		t.Errorf("missing gauge-func sample:\n%s", out)
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	r := &Registry{}
	r.Counter("served_total", "x").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("content type %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "served_total 1") {
		t.Fatalf("body missing sample:\n%s", body)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := &Registry{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("race_total", "")
			h := r.Histogram("race_seconds", "", []float64{0.5, 1})
			g := r.Gauge("race_depth", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%3) * 0.4)
				g.Set(int64(i))
				if i%100 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("race_total", "").Value(); got != 8000 {
		t.Fatalf("race_total = %d, want 8000", got)
	}
	if got := r.Histogram("race_seconds", "", nil).Count(); got != 8000 {
		t.Fatalf("race_seconds count = %d, want 8000", got)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := (&Registry{}).Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
