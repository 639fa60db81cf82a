package batchzk

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"batchzk/internal/telemetry"
)

// End-to-end operations-layer tests: a clean run of a real batch
// prover logs no error event, and a batch with one failing job reads
// back one story through every surface of the debug handler.

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

// TestObsCleanRunRaisesNoAlerts: the pipeline on well-formed jobs
// completes with every job counted as completed and an event log that
// holds no error-level record (no job.failed, nor anything else).
func TestObsCleanRunRaisesNoAlerts(t *testing.T) {
	logOut := &syncWriter{}
	sink := NewTelemetrySink(TelemetryConfig{LogOutput: logOut})

	bp, jobs := proverForObs(t)
	bp.SetTelemetry(sink)
	for i, r := range bp.ProveBatch(jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	counters := sink.Metrics.Snapshot().Counters
	if counters["core/jobs/completed"] != int64(len(jobs)) || counters["core/jobs/failed"] != 0 {
		t.Fatalf("job counters off: %v", counters)
	}
	if logged := logOut.String(); strings.Contains(logged, `"level":"ERROR"`) || strings.Contains(logged, "job.failed") {
		t.Fatalf("clean run logged failure events:\n%s", logged)
	}
}

// TestObsSurfacesAgree: one batch with one failing job, read back
// through the one debug handler and the event log, must tell one story.
// The Prometheus job counters, the flight timelines and the log agree:
// completed + failed = finished timelines, failed = failed timelines =
// job.failed records naming the failing stage, and the in-flight gauge
// reads 0 once the batch has drained.
func TestObsSurfacesAgree(t *testing.T) {
	logOut := &syncWriter{}
	sink := NewTelemetrySink(TelemetryConfig{LogOutput: logOut})
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
	sample := func(name string) int64 {
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
	completed := sample("batchzk_core_jobs_completed_total")
	failed := sample("batchzk_core_jobs_failed_total")
	inFlight := sample("batchzk_core_jobs_in_flight")

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
	if int64(finished) != completed+failed || int64(failedTimelines) != failed {
		t.Fatalf("%d finished timelines (%d failed) disagree with /metrics completed %d failed %d",
			finished, failedTimelines, completed, failed)
	}
	if inFlight != 0 {
		t.Fatalf("core/jobs/in_flight %d after the drain", inFlight)
	}
	logged := logOut.String()
	if n := strings.Count(logged, `"level":"ERROR","msg":"job.failed","component":"core"`); int64(n) != failed {
		t.Fatalf("%d job.failed records for %d failed jobs:\n%s", n, failed, logged)
	}
	if !strings.Contains(logged, `"stage":"commit"`) {
		t.Fatalf("job.failed does not name the failing stage:\n%s", logged)
	}
}
