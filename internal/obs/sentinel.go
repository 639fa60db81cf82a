package obs

import (
	"fmt"
	"sync"
)

// Anomaly sentinel.
//
// The sentinel watches live measurement streams — per-kernel ns/element,
// per-stage latency, per-shard failure rates, SLO burn — and raises
// structured Alerts when a stream departs from where it should be. Two
// reference points anchor "should":
//
//   - the calibrated roofline floors (batchzk-profile roofline): a
//     kernel's measured ns/element can never legitimately sit far above
//     the arithmetic it cannot avoid, so measured > FloorFactor × floor
//     is a regression regardless of history;
//   - the recent baseline: an exponentially weighted moving average of
//     the stream's own past, so drift is caught even for streams with no
//     analytic floor (ZKProphet's observation that ZKP bottlenecks move
//     as inputs scale is exactly this failure mode).
//
// Alerts are hysteretic: a stream must breach for RaiseAfter consecutive
// observations to raise and recover for ClearAfter consecutive
// observations to clear, so a value oscillating across the threshold
// cannot flap an alert. The EWMA baseline is frozen while a stream is in
// breach — otherwise the anomaly itself would become the new normal and
// the alert would clear spuriously.

// Alert kinds.
const (
	AlertKernelRegression = "kernel-regression"
	AlertStageRegression  = "stage-regression"
	AlertShardFailures    = "shard-failure-rate"
	AlertSLOBurn          = "slo-burn"
	AlertQuarantineStorm  = "quarantine-storm"
)

// minStageExcessNs is how far above its baseline, in ns, a stage must
// run before it can breach. On a busy host a ~100 µs stage routinely
// runs 2.5–7× its EWMA for a few jobs (preemption, a GC cycle), which is
// noise, and a slowdown that small costs a job little. A millisecond or
// more per job is worth an alert.
const minStageExcessNs = 1e6

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
	// Subject names the degraded thing: a kernel, a stage, "shard/3", an
	// objective name.
	Subject string `json:"subject"`
	// Value is the observation that breached; Baseline is the reference
	// it was judged against (EWMA, floor, fleet rate, or burn threshold).
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
	// FloorFactor raises when value > FloorFactor × the subject's
	// calibrated roofline floor (default 8; floors describe serial
	// arithmetic lower bounds, so honest measurements sit a few × above).
	FloorFactor float64
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
	if c.FloorFactor <= 1 {
		c.FloorFactor = 8
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
	ewma    float64
	n       int
	breach  int // consecutive breaching observations
	healthy int // consecutive healthy observations
}

// Sentinel holds the tracked baselines and the alert ledger. Safe for
// concurrent use; nil-safe like the rest of the package.
type Sentinel struct {
	cfg SentinelConfig

	mu     sync.Mutex
	floors map[string]float64
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
		floors: map[string]float64{},
		tracks: map[string]*track{},
		active: map[string]*Alert{},
	}
}

// SetFloor installs (or updates) subject's calibrated roofline floor in
// ns/element. Nil-safe.
func (s *Sentinel) SetFloor(subject string, floorNsPerElement float64) {
	if s == nil || floorNsPerElement <= 0 {
		return
	}
	s.mu.Lock()
	s.floors[subject] = floorNsPerElement
	s.mu.Unlock()
}

// SetFloors installs a batch of roofline floors. Nil-safe.
func (s *Sentinel) SetFloors(floors map[string]float64) {
	for k, v := range floors {
		s.SetFloor(k, v)
	}
}

// Observe feeds one measurement of a stream identified by (kind,
// subject): per-kernel or per-stage ns values. The sentinel judges it
// against the subject's roofline floor (when one is installed) and its
// EWMA baseline, applies hysteresis, and returns the alert raised by
// this observation (nil otherwise). Nil-safe.
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

	breach := false
	baseline := 0.0
	reason := ""
	if floor, ok := s.floors[subject]; ok && value > s.cfg.FloorFactor*floor {
		breach = true
		baseline = floor
		reason = fmt.Sprintf("%s at %.1f ns/elem exceeds %gx its calibrated roofline floor (%.1f ns/elem)",
			subject, value, s.cfg.FloorFactor, floor)
	}
	if !breach && t.n >= s.cfg.MinSamples && value > s.cfg.DegradeFactor*t.ewma &&
		(kind != AlertStageRegression || value-t.ewma >= minStageExcessNs) {
		breach = true
		baseline = t.ewma
		reason = fmt.Sprintf("%s at %.1f exceeds %gx its recent baseline (%.1f)",
			subject, value, s.cfg.DegradeFactor, t.ewma)
	}
	if !breach {
		// Fold healthy samples into the baseline; breaching samples are
		// excluded so the anomaly cannot become the new normal.
		if t.n == 0 {
			t.ewma = value
		} else {
			t.ewma = s.cfg.Alpha*value + (1-s.cfg.Alpha)*t.ewma
		}
		t.n++
	}
	return s.judgeLocked(key, kind, subject, SeverityWarning, t, breach, value, baseline, reason, nowNs)
}

// Judge applies pure hysteresis to a stream the caller has already
// judged: breach says whether this observation violates the stream's
// condition, baseline documents the reference. The engine uses it for
// conditions the sentinel cannot derive itself (SLO burn thresholds,
// fleet-relative shard failure rates, quarantine storms). Returns the
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
	return s.judgeLocked(key, kind, subject, severity, t, breach, value, baseline, reason, nowNs)
}

// judgeLocked runs the raise/clear hysteresis for one observation; the
// caller holds s.mu.
func (s *Sentinel) judgeLocked(key, kind, subject, severity string, t *track, breach bool, value, baseline float64, reason string, nowNs int64) *Alert {
	if breach {
		t.breach++
		t.healthy = 0
		if t.breach >= s.cfg.RaiseAfter && s.active[key] == nil {
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
