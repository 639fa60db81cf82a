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
//	                            requests, with uptime and whether the
//	                            health engine is enabled
//	/readyz                   — readiness: 200 while no critical alert is
//	                            active; 503 with the blocking reason during
//	                            a storm of failed jobs or sustained SLO
//	                            burn. Flips back on recovery.
//	/debug/obs/slo            — the HealthSnapshot JSON: job counters,
//	                            per-stage throughput and latency, objective
//	                            attainment and burn rates, budget ledgers,
//	                            active alerts (the feed batchzk-top renders)
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
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		ready, reason := resolve().Ready()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, readyzResponse{Ready: ready, Reason: reason})
	})
	mux.HandleFunc("/debug/obs/slo", func(w http.ResponseWriter, _ *http.Request) {
		sink := resolve()
		if sink == nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "obs disabled"})
			return
		}
		writeJSON(w, http.StatusOK, sink.Health())
	})
	return mux
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	Status   string `json:"status"`
	Obs      bool   `json:"obs_enabled"`
	UptimeNs int64  `json:"uptime_ns,omitempty"`
}

// readyzResponse is the /readyz body.
type readyzResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason"`
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
