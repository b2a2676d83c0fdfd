package obs

import (
	"expvar"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
)

// publishMu guards the expvar publication of the metrics snapshot:
// expvar.Publish panics on duplicate names and offers no unpublish, so
// publication must be idempotent rather than sync.Once-guarded — a Once
// taken by a test or an earlier server instance would leave later
// DebugHandler calls racing straight into the duplicate-name panic.
var publishMu sync.Mutex

// publishMetrics publishes the registry under "athena.metrics" exactly
// once per process, no matter how many handlers are built. The published
// value is a live Func over TakeSnapshot, so a handler built after a
// ResetAll serves the current (zeroed) registry state, never the
// snapshot that existed at first publication.
func publishMetrics() {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get("athena.metrics") == nil {
		expvar.Publish("athena.metrics", expvar.Func(func() any { return TakeSnapshot() }))
	}
}

// DebugHandler returns the opt-in debug mux: the expvar variable dump
// (including an "athena.metrics" snapshot of this registry) under
// /debug/vars, the registry itself under /metrics (Prometheus text
// exposition, or the JSON snapshot via Accept: application/json or
// /metrics/json), and the pprof profile family under /debug/pprof/. It
// is built on a private mux so importing this package never mutates
// http.DefaultServeMux. Safe to call any number of times — every server
// in a multi-server process gets its own mux over the one shared
// publication.
func DebugHandler() http.Handler {
	publishMetrics()
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", MetricsHandler())
	mux.Handle("/metrics/json", MetricsJSONHandler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// ServeDebug serves DebugHandler on addr. It blocks (callers run it in a
// goroutine) and returns the http.ListenAndServe error.
func ServeDebug(addr string) error {
	return http.ListenAndServe(addr, DebugHandler())
}
