package telemetry

import (
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// fakeClock is an injectable sink clock.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns) }
func (c *fakeClock) advance(d time.Duration) { c.ns += int64(d) }

func TestSinkNilSafe(t *testing.T) {
	var s *Sink
	s.JobStarted()
	s.StageDone(1, "commit", 100)
	s.JobDone(JobEnd{Trace: 1, E2ENs: 100})
	s.Event(slog.LevelInfo, "test", "noop")
	if s.Uptime() != 0 {
		t.Fatal("nil sink uptime nonzero")
	}
}

// TestJobSeriesOnFirstJob: a sink that has seen no job exports no job
// series; the first job registers them, and JobDone counts a timed-out
// failure into core/jobs/timeouts.
func TestJobSeriesOnFirstJob(t *testing.T) {
	s := NewSink(Config{Now: (&fakeClock{ns: int64(time.Hour)}).now})
	s.Tracer.Begin("gpusim", "kernel", 0, 0, 0).End()
	for name := range s.Metrics.Snapshot().Counters {
		if strings.HasPrefix(name, "core/") {
			t.Fatalf("sink with no job exports %s", name)
		}
	}
	s.JobStarted()
	s.JobDone(JobEnd{Stage: "commit", Err: errors.New("deadline"), TimedOut: true})
	s.JobStarted()
	s.JobDone(JobEnd{Stage: "opening", Err: errors.New("bad opening")})
	got := s.Metrics.Snapshot().Counters
	if got["core/jobs/failed"] != 2 || got["core/jobs/timeouts"] != 1 || got["core/jobs/completed"] != 0 {
		t.Fatalf("job counters after two failures, one timed out: %v", got)
	}
	if g := s.Metrics.Snapshot().Gauges["core/jobs/in_flight"]; g.Value != 0 {
		t.Fatalf("in-flight gauge %d after both jobs finished", g.Value)
	}
}

func TestEnableResolve(t *testing.T) {
	prev := Active()
	defer Enable(prev)
	e := NewSink(Config{})
	Enable(e)
	if Active() != e {
		t.Fatal("Enable did not install the sink")
	}
	if Resolve(nil) != e {
		t.Fatal("Resolve(nil) did not fall back to the global sink")
	}
	other := NewSink(Config{})
	if Resolve(other) != other {
		t.Fatal("Resolve ignored the explicit sink")
	}
	Enable(nil)
	if Active() != nil {
		t.Fatal("Enable(nil) did not disable")
	}
}
