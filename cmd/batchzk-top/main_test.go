package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"batchzk"
)

// serveObs exposes the operator routes for a freshly enabled engine and
// restores the previous engine on cleanup.
func serveObs(t *testing.T, cfg batchzk.ObsConfig) (*httptest.Server, *batchzk.ObsEngine) {
	t.Helper()
	prev := batchzk.ActiveObs()
	e := batchzk.NewObsEngine(cfg)
	batchzk.EnableObs(e)
	srv := httptest.NewServer(batchzk.ObsHandler())
	t.Cleanup(func() {
		srv.Close()
		batchzk.EnableObs(prev)
	})
	return srv, e
}

func TestTopRendersLiveSnapshot(t *testing.T) {
	srv, e := serveObs(t, batchzk.ObsConfig{})
	e.ObserveQueueDepth(3)
	for i := 0; i < 10; i++ {
		e.ObserveJob(0, int64(2*time.Millisecond), false)
		e.ObserveStage("commit", int64(time.Millisecond))
		e.ObserveStage("opening", int64(3*time.Millisecond))
	}

	var out, errOut bytes.Buffer
	addr := strings.TrimPrefix(srv.URL, "http://")
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
	srv, e := serveObs(t, batchzk.ObsConfig{
		MinJudgeSamples: 4,
		Now:             func() time.Time { return time.Unix(0, clockNs) },
	})
	for i := 0; i < 20; i++ {
		e.ObserveJob(0, int64(time.Second), true)
		clockNs += int64(10 * time.Millisecond)
	}

	var out bytes.Buffer
	addr := strings.TrimPrefix(srv.URL, "http://")
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
	prev := batchzk.ActiveObs()
	batchzk.EnableObs(nil)
	srv := httptest.NewServer(batchzk.ObsHandler())
	defer func() {
		srv.Close()
		batchzk.EnableObs(prev)
	}()

	var out bytes.Buffer
	addr := strings.TrimPrefix(srv.URL, "http://")
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
	srv, e := serveObs(t, batchzk.ObsConfig{})
	e.ObserveJob(0, int64(time.Millisecond), false)

	var out bytes.Buffer
	addr := strings.TrimPrefix(srv.URL, "http://")
	if err := run([]string{"-addr", addr, "-frames", "3", "-plain", "-interval", "1ms"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := strings.Count(out.String(), "batchzk-top —"); n != 3 {
		t.Fatalf("rendered %d frames, want 3", n)
	}
}
