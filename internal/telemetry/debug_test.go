package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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
	h := DebugHandler(nil)

	Enable(nil)
	rec, body := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" || body["obs_enabled"] != false {
		t.Fatalf("healthz with obs off: %d %v", rec.Code, body)
	}

	Enable(NewSink(Config{}))
	rec, body = get(t, h, "/healthz")
	if rec.Code != http.StatusOK || body["obs_enabled"] != true {
		t.Fatalf("healthz with obs on: %d %v", rec.Code, body)
	}
}

func TestReadyzFlipsWithCriticalAlert(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	e := testSink(clk, nil)
	h := DebugHandler(e)

	rec, body := get(t, h, "/readyz")
	if rec.Code != http.StatusOK || body["ready"] != true {
		t.Fatalf("fresh engine readyz: %d %v", rec.Code, body)
	}

	for i := 0; i < 20; i++ {
		finishJob(e, 0, int64(time.Second), true)
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
		finishJob(e, 0, int64(time.Millisecond), false)
		clk.advance(10 * time.Millisecond)
	}
	if rec, _ := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz did not recover: %d", rec.Code)
	}
}

func TestSLOEndpoint(t *testing.T) {
	prev := Active()
	defer Enable(prev)
	h := DebugHandler(nil)

	Enable(nil)
	if rec, _ := get(t, h, "/debug/obs/slo"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("slo with obs off: %d", rec.Code)
	}

	clk := &fakeClock{ns: int64(time.Hour)}
	e := testSink(clk, nil)
	Enable(e)
	finishJob(e, 0, int64(time.Millisecond), false)
	e.StageDone(0, "commit", int64(time.Millisecond))

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

// TestDebugHandlerServesOperatorRoutes: the one debug handler serves
// the operator routes next to the metrics and trace routes, resolving
// the sink at request time.
func TestDebugHandlerServesOperatorRoutes(t *testing.T) {
	prev := Active()
	defer Enable(prev)
	Enable(NewSink(Config{}))
	h := DebugHandler(nil)
	for _, path := range []string{"/healthz", "/readyz", "/debug/obs/slo", "/debug/telemetry/timeline"} {
		if rec, _ := get(t, h, path); rec.Code != http.StatusOK {
			t.Fatalf("debug handler %s: %d", path, rec.Code)
		}
	}
}

// TestDebugServerReenable is the double-registration guard: enabling
// telemetry, serving debug handlers, disabling, and enabling again must
// not panic on expvar re-registration (expvar.Publish panics on reuse).
func TestDebugServerReenable(t *testing.T) {
	defer Enable(nil)
	for round := 0; round < 3; round++ {
		s := NewSink(Config{})
		Enable(s)
		srv, err := ServeDebug("127.0.0.1:0", s)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		resp, err := http.Get("http://" + srv.Addr + "/debug/telemetry/timeline")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: timeline endpoint returned %s", round, resp.Status)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		Enable(nil)
	}
}
