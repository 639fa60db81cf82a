package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"batchzk/internal/telemetry"
)

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: body is not JSON: %q: %v", path, rec.Body.String(), err)
	}
	return rec, body
}

func TestHealthzAlwaysOK(t *testing.T) {
	prev := Active()
	defer Enable(prev)
	h := Handler()

	Enable(nil)
	rec, body := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" || body["obs_enabled"] != false {
		t.Fatalf("healthz with obs off: %d %v", rec.Code, body)
	}

	Enable(New(Config{}))
	rec, body = get(t, h, "/healthz")
	if rec.Code != http.StatusOK || body["obs_enabled"] != true {
		t.Fatalf("healthz with obs on: %d %v", rec.Code, body)
	}
}

func TestReadyzFlipsWithCriticalAlert(t *testing.T) {
	prev := Active()
	defer Enable(prev)
	h := Handler()

	clk := &fakeClock{ns: int64(time.Hour)}
	e := testEngine(clk, nil)
	Enable(e)

	rec, body := get(t, h, "/readyz")
	if rec.Code != http.StatusOK || body["ready"] != true {
		t.Fatalf("fresh engine readyz: %d %v", rec.Code, body)
	}

	for i := 0; i < 20; i++ {
		e.ObserveJob(0, int64(time.Second), true)
		clk.advance(10 * time.Millisecond)
	}
	rec, body = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("storm readyz: %d %v", rec.Code, body)
	}
	if body["reason"] == "" {
		t.Fatal("not-ready response carries no reason")
	}

	clk.advance(15 * time.Second)
	for i := 0; i < 20; i++ {
		e.ObserveJob(0, int64(time.Millisecond), false)
		clk.advance(10 * time.Millisecond)
	}
	if rec, _ := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz did not recover: %d", rec.Code)
	}
}

func TestSLOEndpoint(t *testing.T) {
	prev := Active()
	defer Enable(prev)
	h := Handler()

	Enable(nil)
	if rec, _ := get(t, h, "/debug/obs/slo"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("slo with obs off: %d", rec.Code)
	}

	clk := &fakeClock{ns: int64(time.Hour)}
	e := testEngine(clk, nil)
	Enable(e)
	e.ObserveJob(0, int64(time.Millisecond), false)
	e.ObserveStage("commit", int64(time.Millisecond))

	rec, body := get(t, h, "/debug/obs/slo")
	if rec.Code != http.StatusOK {
		t.Fatalf("slo: %d %q", rec.Code, rec.Body.String())
	}
	if body["schema_version"] != float64(SnapshotSchemaVersion) {
		t.Fatalf("slo schema version: %v", body["schema_version"])
	}
	jobs, ok := body["jobs"].(map[string]any)
	if !ok || jobs["total"] != float64(1) {
		t.Fatalf("slo jobs block: %v", body["jobs"])
	}
	if _, ok := body["objectives"].([]any); !ok {
		t.Fatalf("slo objectives block: %v", body["objectives"])
	}
}

// TestRoutesRegisteredOnDebugServer: linking obs mounts the operator
// routes onto telemetry's debug handler via the extension registry.
func TestRoutesRegisteredOnDebugServer(t *testing.T) {
	patterns := telemetry.DebugRoutePatterns()
	want := map[string]bool{"/healthz": false, "/readyz": false, "/debug/obs/slo": false}
	for _, p := range patterns {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Fatalf("route %s not registered on the debug server (got %v)", p, patterns)
		}
	}

	prev := Active()
	defer Enable(prev)
	Enable(New(Config{}))
	h := telemetry.DebugHandler(nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug server /healthz: %d", rec.Code)
	}
}
