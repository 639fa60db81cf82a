package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns an http.Handler exposing the live introspection
// surfaces for sink s (falling back to the global sink when s is nil):
//
//	/metrics                 — Prometheus text exposition (v0.0.4)
//	/debug/vars              — expvar (includes batchzk.telemetry)
//	/debug/pprof/...         — runtime profiles
//	/debug/telemetry          — metrics snapshot JSON
//	/debug/telemetry/trace    — Chrome trace_event JSON of spans so far
//	/debug/telemetry/spans    — raw spans as JSONL
//	/debug/telemetry/timeline — per-job flight-recorder timelines JSON
//	/healthz                  — liveness: 200 whenever the process serves
//	                            requests, with uptime and whether a sink
//	                            is recording
func DebugHandler(s *Sink) http.Handler {
	PublishExpvar()
	resolve := func() *Sink { return Resolve(s) }
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		sink := resolve()
		if sink == nil || sink.Metrics == nil {
			http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = sink.Metrics.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		sink := resolve()
		if sink == nil {
			http.Error(w, `{"error":"telemetry disabled"}`, http.StatusServiceUnavailable)
			return
		}
		_ = sink.Metrics.WriteSnapshot(w)
	})
	mux.HandleFunc("/debug/telemetry/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = resolve().Trace().WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/telemetry/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = resolve().Trace().WriteJSONL(w)
	})
	mux.HandleFunc("/debug/telemetry/timeline", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = resolve().FlightRecorder().WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		sink := resolve()
		writeJSON(w, http.StatusOK, healthzResponse{
			Status: "ok", Obs: sink != nil, UptimeNs: sink.Uptime().Nanoseconds(),
		})
	})
	return mux
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	Status   string `json:"status"`
	Obs      bool   `json:"obs_enabled"`
	UptimeNs int64  `json:"uptime_ns,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ServeDebug starts the debug server on addr (e.g. "localhost:6060") and
// returns once the listener is bound; the server runs until the returned
// *http.Server is closed. The sink may be nil to follow the global one.
func ServeDebug(addr string, s *Sink) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: DebugHandler(s)}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
