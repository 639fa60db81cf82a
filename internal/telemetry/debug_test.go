package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
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

// TestDebugHandlerServesOperatorRoutes: the one debug handler serves
// the operator routes next to the metrics and trace routes, resolving
// the sink at request time.
func TestDebugHandlerServesOperatorRoutes(t *testing.T) {
	prev := Active()
	defer Enable(prev)
	Enable(NewSink(Config{}))
	h := DebugHandler(nil)
	for _, path := range []string{"/healthz", "/debug/telemetry/timeline"} {
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
