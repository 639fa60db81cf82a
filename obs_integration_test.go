package batchzk

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batchzk/internal/telemetry"
)

// End-to-end operations-layer tests: a real batch prover fed a stream of
// malformed jobs must storm the failure path, raise a structured
// critical alert, flip /readyz to not-ready, and recover once the storm
// passes — while a clean run of the same pipeline must raise nothing at
// all.

// syncWriter serializes concurrent slog writes from the pipeline
// goroutines into one buffer.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// obsStatus fetches one operator endpoint and decodes its JSON body.
func obsStatus(t *testing.T, base, path string, v any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func proverForObs(t *testing.T) (*BatchProver, []Job) {
	t.Helper()
	c, err := RandomCircuit(64, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	params, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchProver(c, params, 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{ID: i, Public: RandVector(2), Secret: RandVector(2)}
	}
	return bp, jobs
}

// TestObsChaosStormFlipsReadyzAndRecovers: with every job failing (each
// carries a witness of the wrong size), the storm of failed jobs must
// raise at least one structured critical alert and flip /readyz to 503;
// after the storm ages out of the fast window and clean jobs flow, the
// alert clears and readiness returns.
func TestObsChaosStormFlipsReadyzAndRecovers(t *testing.T) {
	prev := ActiveTelemetry()
	var clockNs atomic.Int64
	clockNs.Store(int64(time.Hour))
	logOut := &syncWriter{}
	eng := NewTelemetrySink(TelemetryConfig{
		LogOutput:       logOut,
		MinJudgeSamples: 4,
		Sentinel:        ObsSentinelConfig{RaiseAfter: 2, ClearAfter: 2},
		Now:             func() time.Time { return time.Unix(0, clockNs.Load()) },
	})
	EnableTelemetry(eng)
	defer EnableTelemetry(prev)
	srv := httptest.NewServer(telemetry.DebugHandler(nil))
	defer srv.Close()

	if code := obsStatus(t, srv.URL, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("initial /readyz = %d, want 200", code)
	}

	bp, jobs := proverForObs(t)
	for i := range jobs {
		jobs[i].Witness = make([]Element, 1)
	}
	for _, r := range bp.ProveBatch(jobs) {
		if r.Err == nil {
			t.Fatal("a job with a malformed witness produced a proof")
		}
	}
	if st := bp.Stats(); st.Failed != int64(len(jobs)) {
		t.Fatalf("failed %d of %d jobs", st.Failed, len(jobs))
	}

	var ready struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if code := obsStatus(t, srv.URL, "/readyz", &ready); code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("/readyz during storm = %d ready=%v, want 503 not-ready", code, ready.Ready)
	}
	if ready.Reason == "" {
		t.Fatal("not-ready response carries no reason")
	}
	snap := eng.Health()
	if snap.AlertsTotal < 1 || len(snap.ActiveAlerts) < 1 {
		t.Fatalf("storm raised %d alerts (%d active), want >= 1", snap.AlertsTotal, len(snap.ActiveAlerts))
	}
	var storm, critical bool
	for _, a := range snap.ActiveAlerts {
		if a.Severity == ObsSeverityCritical {
			critical = true
		}
		if a.Kind == "quarantine-storm" {
			storm = true
		}
	}
	if !critical || !storm {
		t.Fatalf("want a critical quarantine-storm alert among %+v", snap.ActiveAlerts)
	}
	logged := logOut.String()
	for _, want := range []string{`"msg":"job.failed"`, `"level":"ERROR","msg":"job.failed","component":"core"`, `"stage":"commit"`, "alert.raised"} {
		if !strings.Contains(logged, want) {
			t.Fatalf("event log missing %q:\n%s", want, logged)
		}
	}

	// Recovery: the storm ages out of the fast window, clean jobs flow,
	// and the hysteresis clears the alert.
	clockNs.Add(int64(15 * time.Second))
	clean, cleanJobs := proverForObs(t)
	for _, r := range clean.ProveBatch(cleanJobs) {
		if r.Err != nil {
			t.Fatalf("recovery run failed: %v", r.Err)
		}
	}
	if code := obsStatus(t, srv.URL, "/readyz", &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("/readyz after recovery = %d ready=%v, want 200 ready", code, ready.Ready)
	}
	// The storm and burn alerts must clear; a warning would not gate
	// readiness, so only critical alerts are checked.
	for _, a := range eng.Health().ActiveAlerts {
		if a.Severity == ObsSeverityCritical {
			t.Fatalf("critical alert still active after recovery: %+v", a)
		}
	}
	if !strings.Contains(logOut.String(), "alert.cleared") {
		t.Fatal("event log has no alert.cleared record")
	}
}

// TestObsCleanRunRaisesNoAlerts is the other half of the acceptance
// gate: the same pipeline on well-formed jobs must complete with zero
// alerts and an untouched readiness surface. The sink reads the wall
// clock, so the stage and job latencies it judges are the host's.
func TestObsCleanRunRaisesNoAlerts(t *testing.T) {
	prev := ActiveTelemetry()
	logOut := &syncWriter{}
	eng := NewTelemetrySink(TelemetryConfig{LogOutput: logOut})
	EnableTelemetry(eng)
	defer EnableTelemetry(prev)
	srv := httptest.NewServer(telemetry.DebugHandler(nil))
	defer srv.Close()

	bp, jobs := proverForObs(t)
	for i, r := range bp.ProveBatch(jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	snap := eng.Health()
	if snap.AlertsTotal != 0 || len(snap.ActiveAlerts) != 0 {
		t.Fatalf("clean run raised %d alerts: %+v", snap.AlertsTotal, snap.ActiveAlerts)
	}
	if snap.Jobs.Total != int64(len(jobs)) || snap.Jobs.Failed != 0 {
		t.Fatalf("job counters off: %+v", snap.Jobs)
	}
	if code := obsStatus(t, srv.URL, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz after clean run = %d, want 200", code)
	}
	if logged := logOut.String(); strings.Contains(logged, "alert.raised") || strings.Contains(logged, "job.failed") {
		t.Fatalf("clean run logged failure events:\n%s", logged)
	}
}

// TestObsSnapshotsAgree: one batch with one failing job, read back
// through the one debug handler, must tell one story. The Prometheus
// job counters, the health snapshot's job block and the flight
// timelines agree: total = completed + failed = finished timelines, and
// nothing is left in flight once the batch has drained.
func TestObsSnapshotsAgree(t *testing.T) {
	sink := NewTelemetrySink(TelemetryConfig{})
	srv := httptest.NewServer(telemetry.DebugHandler(sink))
	defer srv.Close()

	bp, jobs := proverForObs(t)
	bp.SetTelemetry(sink)
	jobs[5].Witness = make([]Element, 1) // the one failing job
	failedJobs := 0
	for _, r := range bp.ProveBatch(jobs) {
		if r.Err != nil {
			failedJobs++
		}
	}
	if failedJobs != 1 {
		t.Fatalf("%d jobs failed, want 1", failedJobs)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	_, _ = prom.ReadFrom(resp.Body)
	resp.Body.Close()
	counter := func(name string) int64 {
		t.Helper()
		for _, line := range strings.Split(prom.String(), "\n") {
			var v int64
			if strings.HasPrefix(line, name+" ") {
				if _, err := fmt.Sscan(strings.TrimPrefix(line, name+" "), &v); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("/metrics has no %s", name)
		return 0
	}
	completed := counter("batchzk_core_jobs_completed_total")
	failed := counter("batchzk_core_jobs_failed_total")

	var health struct {
		Jobs struct {
			Total      int64 `json:"total"`
			Failed     int64 `json:"failed"`
			QueueDepth int64 `json:"queue_depth"`
		} `json:"jobs"`
	}
	if code := obsStatus(t, srv.URL, "/debug/obs/slo", &health); code != http.StatusOK {
		t.Fatalf("/debug/obs/slo = %d", code)
	}
	var timeline struct {
		Jobs []JobTimeline `json:"jobs"`
	}
	if code := obsStatus(t, srv.URL, "/debug/telemetry/timeline", &timeline); code != http.StatusOK {
		t.Fatalf("/debug/telemetry/timeline = %d", code)
	}
	finished, failedTimelines := 0, 0
	for _, tl := range timeline.Jobs {
		if tl.Done {
			finished++
			if tl.Error != "" {
				failedTimelines++
			}
		}
	}

	n := int64(len(jobs))
	if completed != n-1 || failed != 1 {
		t.Fatalf("/metrics: completed %d failed %d, want %d and 1", completed, failed, n-1)
	}
	if health.Jobs.Total != completed+failed || health.Jobs.Failed != failed {
		t.Fatalf("/debug/obs/slo jobs %+v disagree with /metrics completed %d failed %d", health.Jobs, completed, failed)
	}
	if int64(finished) != health.Jobs.Total || int64(failedTimelines) != failed {
		t.Fatalf("%d finished timelines (%d failed) disagree with %d jobs (%d failed)", finished, failedTimelines, health.Jobs.Total, failed)
	}
	if health.Jobs.QueueDepth != 0 {
		t.Fatalf("queue depth %d after the drain", health.Jobs.QueueDepth)
	}
}
