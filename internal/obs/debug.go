// Debug endpoint bundle: /metrics and /debug/pprof on one mux — what
// cmd/prosimd serves behind -debug-addr. Profiling stays off the
// service mux so an exposed daemon port never leaks heap dumps;
// operators opt in with a separate, typically loopback-only, listener.
package obs

import (
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns a mux serving the registry in Prometheus text
// at /metrics and the standard pprof endpoints under /debug/pprof/.
func DebugHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
