package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDebugHandlerServesMetricsAndPprof is the debug-mux smoke test
// behind `make obstest`: /metrics and the pprof endpoints answer, and
// nothing is served at the removed expvar path.
func TestDebugHandlerServesMetricsAndPprof(t *testing.T) {
	Default.Counter("debug_smoke_total", "smoke").Inc()
	srv := httptest.NewServer(DebugHandler(Default))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "debug_smoke_total") {
		t.Fatalf("/metrics: code %d, body %q", code, body)
	}
	if code, _ := get("/debug/vars"); code != 404 {
		t.Fatalf("/debug/vars: code %d, want 404", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ index: code %d", code)
	}
}
