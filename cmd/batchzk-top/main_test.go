package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"batchzk"
	"batchzk/internal/telemetry"
)

// serveObs serves the debug handler for a sink built from cfg (nil: no
// sink, telemetry off) and returns its address and the sink.
func serveObs(t *testing.T, cfg *batchzk.TelemetryConfig) (string, *batchzk.TelemetrySink) {
	t.Helper()
	var sink *batchzk.TelemetrySink
	if cfg != nil {
		sink = batchzk.NewTelemetrySink(*cfg)
	}
	prev := batchzk.ActiveTelemetry()
	batchzk.EnableTelemetry(sink)
	srv, err := batchzk.ServeTelemetryDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		batchzk.EnableTelemetry(prev)
	})
	return srv.Addr, sink
}

// finishJob records one whole job on the sink.
func finishJob(s *batchzk.TelemetrySink, e2e time.Duration, failed bool) {
	var err error
	if failed {
		err = errors.New("job failed")
	}
	s.JobStarted()
	s.JobDone(telemetry.JobEnd{E2ENs: int64(e2e), Err: err})
}

func TestTopRendersLiveSnapshot(t *testing.T) {
	addr, e := serveObs(t, &batchzk.TelemetryConfig{})
	for i := 0; i < 3; i++ {
		e.JobStarted() // still in flight: the queue depth
	}
	for i := 0; i < 10; i++ {
		finishJob(e, 2*time.Millisecond, false)
		e.StageDone(0, "commit", int64(time.Millisecond))
		e.StageDone(0, "opening", int64(3*time.Millisecond))
	}

	var out, errOut bytes.Buffer
	if err := run([]string{"-addr", addr, "-once"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"HEALTHY", "READY",
		"queue depth 3",
		"commit", "opening",
		"e2e-p99", "error-rate",
		"no active alerts",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("frame missing %q:\n%s", want, got)
		}
	}
}

func TestTopRendersAlertsAndNotReady(t *testing.T) {
	clockNs := int64(time.Hour)
	addr, e := serveObs(t, &batchzk.TelemetryConfig{
		MinJudgeSamples: 4,
		Now:             func() time.Time { return time.Unix(0, clockNs) },
	})
	for i := 0; i < 20; i++ {
		finishJob(e, time.Second, true)
		clockNs += int64(10 * time.Millisecond)
	}

	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-once"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "NOT READY") {
		t.Fatalf("frame does not show not-ready:\n%s", got)
	}
	if !strings.Contains(got, "ACTIVE ALERTS") || !strings.Contains(got, "[CRITICAL]") {
		t.Fatalf("frame does not show the critical alert:\n%s", got)
	}
}

func TestTopObsDisabled(t *testing.T) {
	addr, _ := serveObs(t, nil)

	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-once"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "obs engine disabled") {
		t.Fatalf("frame does not flag the disabled engine:\n%s", out.String())
	}
}

func TestTopUnreachableOneShotFails(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-addr", "127.0.0.1:1", "-once", "-timeout", "200ms"}, &out, &bytes.Buffer{})
	if err == nil {
		t.Fatal("one-shot against an unreachable target did not fail")
	}
}

func TestTopMultiFrame(t *testing.T) {
	addr, e := serveObs(t, &batchzk.TelemetryConfig{})
	finishJob(e, time.Millisecond, false)

	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-frames", "3", "-plain", "-interval", "1ms"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := strings.Count(out.String(), "batchzk-top —"); n != 3 {
		t.Fatalf("rendered %d frames, want 3", n)
	}
}
