package obs

import (
	"encoding/json"
	"net/http"

	"batchzk/internal/telemetry"
)

// Operator surfaces. Three routes ride on the telemetry debug server
// (registered at package init, resolved against the active engine at
// request time, so they exist as soon as any instrumented layer links
// this package):
//
//	/healthz        — liveness: 200 whenever the process serves requests,
//	                  with uptime and whether obs is enabled.
//	/readyz         — readiness: 200 while no critical alert is active;
//	                  503 with the blocking reason during a storm of
//	                  failed jobs or sustained SLO burn. Flips back on recovery.
//	/debug/obs/slo  — the full Snapshot JSON: job counters, per-stage
//	                  throughput and latency, objective attainment and
//	                  burn rates, budget ledgers, active alerts. This is
//	                  the feed batchzk-top renders.

func init() {
	telemetry.RegisterDebugRoute("/healthz", http.HandlerFunc(handleHealthz))
	telemetry.RegisterDebugRoute("/readyz", http.HandlerFunc(handleReadyz))
	telemetry.RegisterDebugRoute("/debug/obs/slo", http.HandlerFunc(handleSLO))
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

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	e := Active()
	resp := healthzResponse{Status: "ok", Obs: e != nil}
	if e != nil {
		resp.UptimeNs = e.Uptime().Nanoseconds()
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reason := Active().Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, readyzResponse{Ready: ready, Reason: reason})
}

func handleSLO(w http.ResponseWriter, _ *http.Request) {
	e := Active()
	if e == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "obs disabled"})
		return
	}
	writeJSON(w, http.StatusOK, e.Snapshot())
}

// Handler returns a standalone mux with the three operator routes, for
// embedding into servers that do not use the telemetry debug handler
// (the vml predict server, tests).
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/readyz", handleReadyz)
	mux.HandleFunc("/debug/obs/slo", handleSLO)
	return mux
}
