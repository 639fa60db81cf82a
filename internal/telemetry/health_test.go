package telemetry

import (
	"bytes"
	"encoding/json"
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

func testSink(clk *fakeClock, out *bytes.Buffer) *Sink {
	cfg := Config{
		Now:             clk.now,
		MinJudgeSamples: 4,
		Sentinel:        SentinelConfig{MinSamples: 4, RaiseAfter: 2, ClearAfter: 2},
	}
	if out != nil {
		cfg.LogOutput = out
	}
	return NewSink(cfg)
}

// finishJob records one whole job on s: started, then done after e2eNs.
func finishJob(s *Sink, shard int, e2eNs int64, failed bool) {
	var err error
	if failed {
		err = errors.New("job failed")
	}
	s.JobStarted()
	s.JobDone(JobEnd{Shard: shard, E2ENs: e2eNs, Err: err})
}

func TestEngineNilSafe(t *testing.T) {
	var s *Sink
	s.JobStarted()
	s.StageDone(1, "commit", 100)
	s.JobDone(JobEnd{Trace: 1, E2ENs: 100})
	s.Event(slog.LevelInfo, "test", "noop")
	if ready, reason := s.Ready(); !ready || reason != "obs disabled" {
		t.Fatalf("nil sink Ready = %v, %q", ready, reason)
	}
	h := s.Health()
	if !h.Ready || h.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("nil sink snapshot: %+v", h)
	}
	if s.Uptime() != 0 {
		t.Fatal("nil sink uptime nonzero")
	}
}

// TestQuarantineStormFlipsReadiness drives the storm condition end to
// end: healthy → storm (readiness false, critical alert) → recovery
// (readiness true again, alert cleared).
func TestQuarantineStormFlipsReadiness(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	e := testSink(clk, nil)

	// Healthy traffic.
	for i := 0; i < 20; i++ {
		finishJob(e, 0, int64(time.Millisecond), false)
		clk.advance(10 * time.Millisecond)
	}
	if ready, _ := e.Ready(); !ready {
		t.Fatal("healthy traffic left the engine not-ready")
	}

	// Storm: every job fails.
	for i := 0; i < 20; i++ {
		finishJob(e, 0, int64(time.Second), true)
		clk.advance(10 * time.Millisecond)
	}
	ready, reason := e.Ready()
	if ready {
		t.Fatal("failed-job storm did not flip readiness")
	}
	if !strings.Contains(reason, AlertQuarantineStorm) {
		t.Fatalf("not-ready reason %q does not name the storm", reason)
	}
	var storm bool
	for _, a := range e.ActiveAlerts() {
		if a.Kind == AlertQuarantineStorm && a.Severity == SeverityCritical {
			storm = true
		}
	}
	if !storm {
		t.Fatalf("no critical quarantine-storm alert among %+v", e.ActiveAlerts())
	}

	// Recovery: clean jobs slide the storm out of the fast window.
	clk.advance(15 * time.Second) // fast window (10s) fully slides
	for i := 0; i < 20; i++ {
		finishJob(e, 0, int64(time.Millisecond), false)
		clk.advance(10 * time.Millisecond)
	}
	if ready, reason := e.Ready(); !ready {
		t.Fatalf("engine did not recover after the storm passed: %q", reason)
	}
	// The storm alert is in history, cleared.
	var cleared bool
	for _, a := range e.Alerts() {
		if a.Kind == AlertQuarantineStorm && !a.Active() {
			cleared = true
		}
	}
	if !cleared {
		t.Fatal("storm alert missing or still active in history")
	}
}

// TestSLOBurnAlert drives sustained objective violation into a critical
// slo-burn alert via the multi-window rule.
func TestSLOBurnAlert(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	e := testSink(clk, nil)
	// Fail half of all jobs against the default 2% error budget: burn 25×.
	for i := 0; i < 40; i++ {
		finishJob(e, 0, int64(time.Millisecond), i%2 == 0)
		clk.advance(50 * time.Millisecond)
	}
	var burnAlert bool
	for _, a := range e.ActiveAlerts() {
		if a.Kind == AlertSLOBurn && a.Severity == SeverityCritical {
			burnAlert = true
		}
	}
	if !burnAlert {
		t.Fatalf("sustained burn raised no slo-burn alert; active = %+v", e.ActiveAlerts())
	}
	if ready, _ := e.Ready(); ready {
		t.Fatal("critical slo-burn alert did not gate readiness")
	}
}

// TestShardFailureDivergence: one shard failing while the fleet is
// healthy raises a warning-severity shard alert that does NOT gate
// readiness.
func TestShardFailureDivergence(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	e := testSink(clk, nil)
	// Three healthy shards, one failing: fleet rate 25%, shard 1 at 100%,
	// past the fleet×2 + 0.1 divergence limit.
	for i := 0; i < 30; i++ {
		finishJob(e, 0, int64(time.Millisecond), false)
		finishJob(e, 2, int64(time.Millisecond), false)
		finishJob(e, 3, int64(time.Millisecond), false)
		finishJob(e, 1, int64(time.Millisecond), true)
		clk.advance(10 * time.Millisecond)
	}
	var shardAlert *Alert
	for _, a := range e.ActiveAlerts() {
		if a.Kind == AlertShardFailures {
			cp := a
			shardAlert = &cp
		}
	}
	if shardAlert == nil {
		t.Fatalf("diverging shard raised no alert; active = %+v", e.ActiveAlerts())
	}
	if shardAlert.Subject != "shard/1" {
		t.Fatalf("shard alert subject = %q, want shard/1", shardAlert.Subject)
	}
	if shardAlert.Severity != SeverityWarning {
		t.Fatalf("shard alert severity = %q, want warning", shardAlert.Severity)
	}
}

// TestCleanRunRaisesNoAlerts is the acceptance criterion's negative
// space: steady healthy traffic must never alert.
func TestCleanRunRaisesNoAlerts(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	e := testSink(clk, nil)
	for i := 0; i < 500; i++ {
		shard := i % 4
		finishJob(e, shard, int64(time.Millisecond)+int64(i%7)*int64(100*time.Microsecond), false)
		for _, st := range []string{"commit", "gate-sumcheck", "linear-sumcheck", "opening"} {
			e.StageDone(0, st, int64(200*time.Microsecond)+int64(i%5)*int64(10*time.Microsecond))
		}
		clk.advance(5 * time.Millisecond)
	}
	if alerts := e.Alerts(); len(alerts) != 0 {
		t.Fatalf("clean run raised %d alerts: %+v", len(alerts), alerts)
	}
	if ready, _ := e.Ready(); !ready {
		t.Fatal("clean run not ready")
	}
}

// TestLogEventSchema checks the JSON log contract CI's jq check relies
// on: time, level, msg, component on every record, fixed attr names.
func TestLogEventSchema(t *testing.T) {
	var buf bytes.Buffer
	clk := &fakeClock{ns: int64(time.Hour)}
	e := testSink(clk, &buf)
	e.Event(slog.LevelWarn, "core", "job.failed",
		Job(7), Trace(42), Stage("opening"), Shard(2), Err(nil))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		for _, key := range []string{"time", "level", "msg", "component"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("log record missing %q: %q", key, line)
			}
		}
	}
	last := lines[len(lines)-1]
	var rec map[string]any
	_ = json.Unmarshal([]byte(last), &rec)
	if rec["msg"] != "job.failed" || rec["component"] != "core" {
		t.Fatalf("event record: %q", last)
	}
	if rec["job_id"] != float64(7) || rec["trace_id"] != float64(42) ||
		rec["stage"] != "opening" || rec["shard"] != float64(2) ||
		rec["error"] != "" {
		t.Fatalf("attr names drifted: %q", last)
	}
}

// TestAlertEventsLogged: raising and clearing alerts emits the
// alert.raised / alert.cleared events.
func TestAlertEventsLogged(t *testing.T) {
	var buf bytes.Buffer
	clk := &fakeClock{ns: int64(time.Hour)}
	e := testSink(clk, &buf)
	for i := 0; i < 20; i++ {
		finishJob(e, 0, int64(time.Second), true)
		clk.advance(10 * time.Millisecond)
	}
	clk.advance(15 * time.Second)
	for i := 0; i < 20; i++ {
		finishJob(e, 0, int64(time.Millisecond), false)
		clk.advance(10 * time.Millisecond)
	}
	logs := buf.String()
	if !strings.Contains(logs, `"msg":"alert.raised"`) {
		t.Fatal("no alert.raised event in the log")
	}
	if !strings.Contains(logs, `"msg":"alert.cleared"`) {
		t.Fatal("no alert.cleared event in the log")
	}
}

func TestSnapshot(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	e := testSink(clk, nil)
	for i := 0; i < 5; i++ {
		e.JobStarted() // still in flight at the snapshot
	}
	for i := 0; i < 10; i++ {
		finishJob(e, 0, int64(2*time.Millisecond), false)
		e.StageDone(0, "commit", int64(time.Millisecond))
		clk.advance(100 * time.Millisecond)
	}
	s := e.Health()
	if s.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("schema version = %d", s.SchemaVersion)
	}
	if s.Jobs.Total != 10 || s.Jobs.Failed != 0 || s.Jobs.QueueDepth != 5 {
		t.Fatalf("job counters: %+v", s.Jobs)
	}
	if len(s.Stages) != 1 || s.Stages[0].Name != "commit" || s.Stages[0].Count != 10 ||
		s.Stages[0].TotalNs != int64(10*time.Millisecond) {
		t.Fatalf("stages: %+v", s.Stages)
	}
	if s.Stages[0].RatePerSec <= 0 || s.Stages[0].P99Ns != float64(time.Millisecond) {
		t.Fatalf("stage stats: %+v", s.Stages[0])
	}
	if len(s.Objectives) != 2 {
		t.Fatalf("objectives: %+v", s.Objectives)
	}
	if !s.Ready || s.ActiveAlerts == nil {
		t.Fatalf("snapshot readiness: ready=%v alerts=%v", s.Ready, s.ActiveAlerts)
	}
	if s.UptimeNs != clk.ns-int64(time.Hour) {
		t.Fatalf("uptime = %d", s.UptimeNs)
	}
	// The snapshot must serialize (it is the /debug/obs/slo body).
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

// TestJobSeriesOnFirstJob: a sink that has seen no job exports no job
// series and reads zero jobs; the first job registers them, and JobDone
// counts a timed-out failure into core/jobs/timeouts.
func TestJobSeriesOnFirstJob(t *testing.T) {
	s := testSink(&fakeClock{ns: int64(time.Hour)}, nil)
	s.Tracer.Begin("gpusim", "kernel", 0, 0, 0).End()
	for name := range s.Metrics.Snapshot().Counters {
		if strings.HasPrefix(name, "core/") {
			t.Fatalf("sink with no job exports %s", name)
		}
	}
	if h := s.Health(); h.Jobs != (JobCounters{}) {
		t.Fatalf("sink with no job: %+v", h.Jobs)
	}
	s.JobStarted()
	s.JobDone(JobEnd{Stage: "commit", Err: errors.New("deadline"), TimedOut: true})
	s.JobStarted()
	s.JobDone(JobEnd{Stage: "opening", Err: errors.New("bad opening")})
	got := s.Metrics.Snapshot().Counters
	if got["core/jobs/failed"] != 2 || got["core/jobs/timeouts"] != 1 || got["core/jobs/completed"] != 0 {
		t.Fatalf("job counters after two failures, one timed out: %v", got)
	}
}

func TestInvalidObjectiveDropped(t *testing.T) {
	var buf bytes.Buffer
	e := NewSink(Config{
		LogOutput: &buf,
		Objectives: []Objective{
			{Name: "good", Kind: KindErrorRate, TargetRate: 0.1},
			{Name: "bad", Kind: KindLatency, Quantile: 7, TargetNs: 1},
		},
	})
	e.mu.Lock()
	n := len(e.objectives)
	e.mu.Unlock()
	if n != 1 {
		t.Fatalf("engine kept %d objectives, want 1 (invalid dropped)", n)
	}
	if !strings.Contains(buf.String(), "objective.invalid") {
		t.Fatal("dropped objective not logged")
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
