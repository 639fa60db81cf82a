package telemetry

import (
	"strconv"
	"time"
)

// Health engine: the live answer to "is the prover healthy, and will
// anyone notice before the clients do?". The sink judges what it
// records: JobDone feeds the end-to-end objectives and the fleet and
// per-shard failure windows, StageDone feeds each stage's window and
// regression sentinel, and the storm, burn and shard conditions are
// re-judged on every finished job. /healthz, /readyz and /debug/obs/slo
// on the debug handler, and the batchzk-top console, read the result.

// stageTrack is one pipeline stage's live stream: its lifetime latency
// histogram in the registry and its fast window.
type stageTrack struct {
	hist   *Histogram
	window *sampleWindow
}

// judgeLocked re-evaluates the storm, SLO-burn, and shard-vs-fleet
// conditions after a job observation; s.mu is held.
func (s *Sink) judgeLocked(now int64, shard int) {
	minN := int64(s.cfg.MinJudgeSamples)

	// Failure storm: the fast window's failed fraction.
	total, bad := s.fleet.Counts(now)
	frac := 0.0
	if total > 0 {
		frac = float64(bad) / float64(total)
	}
	s.sentinel.Judge(AlertQuarantineStorm, "pipeline", SeverityCritical,
		total >= minN && frac >= s.cfg.QuarantineStormFrac,
		frac, s.cfg.QuarantineStormFrac,
		"failed job fraction over the fast window at or above the storm threshold", now)

	// Multi-window SLO burn per objective.
	for _, st := range s.objectives {
		allowed := st.obj.allowedBadFrac()
		fastN, _ := st.fast.Counts(now)
		fb := burn(st.fast, now, allowed)
		sb := burn(st.slow, now, allowed)
		s.sentinel.Judge(AlertSLOBurn, st.obj.Name, SeverityCritical,
			fastN >= minN && fb >= s.cfg.BurnThreshold && sb >= s.cfg.BurnThreshold,
			fb, s.cfg.BurnThreshold,
			"error budget burning above threshold in both the fast and slow windows", now)
	}

	// This shard's failure rate against the fleet.
	if sw := s.shards[shard]; sw != nil && shard >= 0 {
		sTotal, sBad := sw.Counts(now)
		fTotal, fBad := s.fleet.Counts(now)
		if sTotal >= minN && fTotal > 0 {
			sRate := float64(sBad) / float64(sTotal)
			fRate := float64(fBad) / float64(fTotal)
			limit := fRate*s.cfg.ShardFailFactor + s.cfg.ShardFailMargin
			s.sentinel.Judge(AlertShardFailures, shardSubject(shard), SeverityWarning,
				sRate > limit, sRate, limit,
				"shard failure rate departing from the fleet", now)
		}
	}
}

func shardSubject(shard int) string {
	if shard < 0 {
		return "shard/unsharded"
	}
	return "shard/" + strconv.Itoa(shard)
}

// Ready reports readiness: false (with a reason) while any critical
// alert is active. A nil sink is ready — telemetry off means "don't
// gate".
func (s *Sink) Ready() (bool, string) {
	if s == nil {
		return true, "obs disabled"
	}
	for _, a := range s.sentinel.ActiveAlerts() {
		if a.Severity == SeverityCritical {
			return false, a.Kind + " on " + a.Subject + ": " + a.Reason
		}
	}
	return true, "ok"
}

// ActiveAlerts returns the live alerts, newest first. Nil-safe.
func (s *Sink) ActiveAlerts() []Alert {
	if s == nil {
		return nil
	}
	return s.sentinel.ActiveAlerts()
}

// Alerts returns the alert history, newest first. Nil-safe.
func (s *Sink) Alerts() []Alert {
	if s == nil {
		return nil
	}
	return s.sentinel.Alerts()
}

// SnapshotSchemaVersion identifies the /debug/obs/slo JSON layout.
const SnapshotSchemaVersion = 1

// StageStatus is one pipeline stage's live view in a HealthSnapshot.
type StageStatus struct {
	Name string `json:"name"`
	// RatePerSec is the stage's completion throughput over the fast
	// window; P50Ns/P99Ns are its fast-window latency quantiles.
	RatePerSec float64 `json:"rate_per_sec"`
	P50Ns      float64 `json:"p50_ns"`
	P99Ns      float64 `json:"p99_ns"`
	// Count and TotalNs are lifetime accumulations, read from the
	// stage's latency histogram.
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

// JobCounters is the lifetime job accounting of a HealthSnapshot, read
// from the job counters and the in-flight gauge.
type JobCounters struct {
	Total      int64 `json:"total"`
	Failed     int64 `json:"failed"`
	QueueDepth int64 `json:"queue_depth"`
}

// HealthSnapshot is the operator view served on /debug/obs/slo and
// rendered by batchzk-top.
type HealthSnapshot struct {
	SchemaVersion int    `json:"schema_version"`
	NowNs         int64  `json:"now_ns"`
	UptimeNs      int64  `json:"uptime_ns"`
	Ready         bool   `json:"ready"`
	ReadyReason   string `json:"ready_reason"`

	Jobs       JobCounters       `json:"jobs"`
	Stages     []StageStatus     `json:"stages"`
	Objectives []ObjectiveStatus `json:"objectives"`
	// ActiveAlerts are the live alerts; AlertsTotal counts every alert
	// ever raised (history is capped, the counter is not).
	ActiveAlerts []Alert `json:"active_alerts"`
	AlertsTotal  int64   `json:"alerts_total"`
}

// Health evaluates everything at the sink clock's now. Nil-safe: a nil
// sink returns a ready, empty snapshot.
func (s *Sink) Health() HealthSnapshot {
	ready, reason := s.Ready()
	h := HealthSnapshot{SchemaVersion: SnapshotSchemaVersion, Ready: ready, ReadyReason: reason}
	if s == nil {
		return h
	}
	now := s.nowNs()
	h.NowNs = now
	h.UptimeNs = now - s.start.UnixNano()
	h.ActiveAlerts = s.sentinel.ActiveAlerts()
	s.sentinel.mu.Lock()
	h.AlertsTotal = s.sentinel.nextID
	s.sentinel.mu.Unlock()
	if js := s.jobs.Load(); js != nil {
		failed := js.failed.Value()
		h.Jobs = JobCounters{
			Total:      js.completed.Value() + failed,
			Failed:     failed,
			QueueDepth: js.inFlight.Value(),
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	h.Stages = make([]StageStatus, 0, len(s.stageOrder))
	for _, name := range s.stageOrder {
		t := s.stages[name]
		hs := t.hist.Snapshot()
		st := StageStatus{Name: name, Count: hs.Count, TotalNs: hs.Sum,
			RatePerSec: t.window.SumRate(now)}
		if q, ok := t.window.Quantile(now, 0.50); ok {
			st.P50Ns = float64(q)
		}
		if q, ok := t.window.Quantile(now, 0.99); ok {
			st.P99Ns = float64(q)
		}
		h.Stages = append(h.Stages, st)
	}
	h.Objectives = make([]ObjectiveStatus, 0, len(s.objectives))
	for _, st := range s.objectives {
		h.Objectives = append(h.Objectives, st.status(now))
	}
	return h
}

// Uptime returns how long the sink has been alive on its clock.
// Nil-safe.
func (s *Sink) Uptime() time.Duration {
	if s == nil {
		return 0
	}
	return s.cfg.Now().Sub(s.start)
}
