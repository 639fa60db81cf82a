package telemetry

import (
	"fmt"
	"sync"
)

// Anomaly sentinel.
//
// The sentinel watches live measurement streams — per-stage latency,
// per-shard failure rates, SLO burn — and raises structured Alerts when
// a stream departs from where it should be. For a latency stream,
// "should" is its recent baseline: an exponentially weighted moving
// average of the stream's own past (ZKProphet's observation that ZKP
// bottlenecks move as inputs scale is exactly the drift it catches).
//
// Alerts are hysteretic: a stream must breach for RaiseAfter consecutive
// observations to raise and recover for ClearAfter consecutive
// observations to clear, so a value oscillating across the threshold
// cannot flap an alert. The EWMA baseline is frozen while a stream is in
// breach — otherwise the anomaly itself would become the new normal and
// the alert would clear spuriously.

// Alert kinds.
const (
	AlertStageRegression = "stage-regression"
	AlertShardFailures   = "shard-failure-rate"
	AlertSLOBurn         = "slo-burn"
	// AlertQuarantineStorm fires on a storm of failed jobs; the name
	// dates from when every failure was dead-lettered.
	AlertQuarantineStorm = "quarantine-storm"
)

// minStageExcessNs is how far above its baseline, in ns, a stage must
// run before it can breach. On a busy host a ~100 µs stage routinely
// runs 2.5–7× its EWMA for a few jobs (preemption, a GC cycle), which is
// noise, and a slowdown that small costs a job little. A millisecond or
// more per job is worth an alert.
const minStageExcessNs = 1e6

// minStageBreachNs is how long, in ns of the sink clock, a stage must
// stay in breach before its alert raises. Host contention stretches a
// fast stage in bursts: on 2 vCPUs under the race detector a 1 ms stage
// runs 3–9× its baseline for a few consecutive jobs, bursts of 5–20 ms,
// so RaiseAfter observations of it span only milliseconds of noise. A
// regression worth an operator's attention outlasts a second; for a
// stage of half a second or more, the default RaiseAfter of 3
// observations already spans that long.
const minStageBreachNs = 1e9

// Alert severities. Critical alerts flip /readyz to not-ready.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// Alert is one structured sentinel finding, also emitted as an
// "alert.raised"/"alert.cleared" log event.
type Alert struct {
	ID       int64  `json:"id"`
	Kind     string `json:"kind"`
	Severity string `json:"severity"`
	// Subject names the degraded thing: a stage, "shard/3", an objective
	// name.
	Subject string `json:"subject"`
	// Value is the observation that breached; Baseline is the reference
	// it was judged against (EWMA, fleet rate, or burn threshold).
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline"`
	// Reason is the human-readable one-liner.
	Reason   string `json:"reason"`
	RaisedNs int64  `json:"raised_ns"`
	// ClearedNs is zero while the alert is active.
	ClearedNs int64 `json:"cleared_ns,omitempty"`
}

// Active reports whether the alert has not yet cleared.
func (a Alert) Active() bool { return a.ClearedNs == 0 }

// SentinelConfig tunes the sentinel's judgment. The zero value is
// usable: every field defaults as documented.
type SentinelConfig struct {
	// Alpha is the EWMA weight of a new sample (default 0.2).
	Alpha float64
	// DegradeFactor raises when value > DegradeFactor × EWMA baseline
	// (default 2.5).
	DegradeFactor float64
	// MinSamples is the EWMA warm-up: no baseline judgment before this
	// many observations of a stream (default 8).
	MinSamples int
	// RaiseAfter is how many consecutive breaches raise an alert
	// (default 3); ClearAfter is how many consecutive healthy
	// observations clear it (default 3).
	RaiseAfter int
	ClearAfter int
	// AlertCap bounds the retained alert history (default 256).
	AlertCap int
}

func (c SentinelConfig) withDefaults() SentinelConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	if c.DegradeFactor <= 1 {
		c.DegradeFactor = 2.5
	}
	if c.MinSamples < 1 {
		c.MinSamples = 8
	}
	if c.RaiseAfter < 1 {
		c.RaiseAfter = 3
	}
	if c.ClearAfter < 1 {
		c.ClearAfter = 3
	}
	if c.AlertCap < 1 {
		c.AlertCap = 256
	}
	return c
}

// track is one watched stream's state.
type track struct {
	ewma        float64
	n           int
	breach      int   // consecutive breaching observations
	breachSince int64 // nowNs of the streak's first breach
	healthy     int   // consecutive healthy observations
}

// Sentinel holds the tracked baselines and the alert ledger. Safe for
// concurrent use; nil-safe like the rest of the package.
type Sentinel struct {
	cfg SentinelConfig

	mu     sync.Mutex
	tracks map[string]*track
	active map[string]*Alert // key → the live alert
	log    []Alert           // raised alerts, oldest first, capped
	nextID int64
	// onRaise/onClear let the engine log and count without the sentinel
	// knowing about loggers; called outside the judgment hot path but
	// under mu, so handlers must not call back into the sentinel.
	onRaise func(Alert)
	onClear func(Alert)
}

// NewSentinel builds a sentinel with the given config (zero = defaults).
func NewSentinel(cfg SentinelConfig) *Sentinel {
	return &Sentinel{
		cfg:    cfg.withDefaults(),
		tracks: map[string]*track{},
		active: map[string]*Alert{},
	}
}

// Observe feeds one measurement of a stream identified by (kind,
// subject), such as a stage's latency in ns. The sentinel judges it
// against the stream's EWMA baseline, applies hysteresis, and returns
// the alert raised by this observation (nil otherwise). Nil-safe.
func (s *Sentinel) Observe(kind, subject string, value float64, nowNs int64) *Alert {
	if s == nil || value < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := kind + "/" + subject
	t := s.tracks[key]
	if t == nil {
		t = &track{}
		s.tracks[key] = t
	}

	breach := t.n >= s.cfg.MinSamples && value > s.cfg.DegradeFactor*t.ewma &&
		(kind != AlertStageRegression || value-t.ewma >= minStageExcessNs)
	baseline, reason, minSpan := 0.0, "", int64(0)
	if kind == AlertStageRegression {
		minSpan = minStageBreachNs
	}
	if breach {
		baseline = t.ewma
		reason = fmt.Sprintf("%s at %.1f exceeds %gx its recent baseline (%.1f)",
			subject, value, s.cfg.DegradeFactor, t.ewma)
	} else {
		// Fold healthy samples into the baseline; breaching samples are
		// excluded so the anomaly cannot become the new normal.
		if t.n == 0 {
			t.ewma = value
		} else {
			t.ewma = s.cfg.Alpha*value + (1-s.cfg.Alpha)*t.ewma
		}
		t.n++
	}
	return s.judgeLocked(key, kind, subject, SeverityWarning, t, breach, value, baseline, reason, nowNs, minSpan)
}

// Judge applies pure hysteresis to a stream the caller has already
// judged: breach says whether this observation violates the stream's
// condition, baseline documents the reference. The engine uses it for
// conditions the sentinel cannot derive itself (SLO burn thresholds,
// fleet-relative shard failure rates, failed-job storms). Returns the
// alert raised by this observation, if any. Nil-safe.
func (s *Sentinel) Judge(kind, subject, severity string, breach bool, value, baseline float64, reason string, nowNs int64) *Alert {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := kind + "/" + subject
	t := s.tracks[key]
	if t == nil {
		t = &track{}
		s.tracks[key] = t
	}
	return s.judgeLocked(key, kind, subject, severity, t, breach, value, baseline, reason, nowNs, 0)
}

// judgeLocked runs the raise/clear hysteresis for one observation: a
// streak raises once it is RaiseAfter observations long and spans at
// least minSpanNs. The caller holds s.mu.
func (s *Sentinel) judgeLocked(key, kind, subject, severity string, t *track, breach bool, value, baseline float64, reason string, nowNs, minSpanNs int64) *Alert {
	if breach {
		if t.breach == 0 {
			t.breachSince = nowNs
		}
		t.breach++
		t.healthy = 0
		if t.breach >= s.cfg.RaiseAfter && nowNs-t.breachSince >= minSpanNs && s.active[key] == nil {
			s.nextID++
			a := Alert{
				ID: s.nextID, Kind: kind, Severity: severity, Subject: subject,
				Value: value, Baseline: baseline, Reason: reason, RaisedNs: nowNs,
			}
			s.active[key] = &a
			if len(s.log) >= s.cfg.AlertCap {
				s.log = s.log[1:]
			}
			s.log = append(s.log, a)
			if s.onRaise != nil {
				s.onRaise(a)
			}
			return &a
		}
		return nil
	}
	t.healthy++
	t.breach = 0
	if a := s.active[key]; a != nil && t.healthy >= s.cfg.ClearAfter {
		a.ClearedNs = nowNs
		if a.ClearedNs == 0 {
			a.ClearedNs = 1 // a zero clear stamp would read as still-active
		}
		// Mirror the clear into the history entry with the same ID.
		for i := range s.log {
			if s.log[i].ID == a.ID {
				s.log[i].ClearedNs = a.ClearedNs
			}
		}
		delete(s.active, key)
		if s.onClear != nil {
			s.onClear(*a)
		}
	}
	return nil
}

// ActiveAlerts returns the live alerts, most recently raised first.
func (s *Sentinel) ActiveAlerts() []Alert {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, 0, len(s.active))
	for _, a := range s.active {
		out = append(out, *a)
	}
	sortAlerts(out)
	return out
}

// Alerts returns the alert history (active and cleared), most recently
// raised first, capped at AlertCap entries.
func (s *Sentinel) Alerts() []Alert {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, len(s.log))
	copy(out, s.log)
	sortAlerts(out)
	return out
}

// sortAlerts orders newest-raised first with ID as the tiebreaker.
func sortAlerts(a []Alert) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j-1], a[j]); j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

func less(x, y Alert) bool {
	if x.RaisedNs != y.RaisedNs {
		return x.RaisedNs < y.RaisedNs
	}
	return x.ID < y.ID
}
