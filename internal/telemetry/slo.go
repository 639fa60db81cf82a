package telemetry

import (
	"fmt"
	"time"
)

// SLO engine.
//
// An Objective is a service-level objective over a rolling window:
// either a latency quantile ("p99 end-to-end ≤ 250ms", "p99 of the
// commit stage ≤ 50ms") or an error-rate bound ("≤ 2% of jobs fail").
// Every objective reduces to an allowed-bad-fraction: a pXX latency
// target allows (1 − XX/100) of samples over the target, an error-rate
// target allows TargetRate of jobs to fail. That single reduction gives
// the whole SRE toolkit in one place:
//
//   - attainment: is the windowed value (quantile or rate) within target;
//   - burn rate: observed bad fraction ÷ allowed bad fraction, computed
//     over both a fast and a slow window (the multi-window burn-rate rule:
//     paging only when both windows burn avoids both false alarms from
//     one bad second and blindness to slow leaks);
//   - error budget: a ledger of every sample since the engine started —
//     remaining = 1 − bad/(allowed·total), so 1.0 means untouched budget,
//     0 means exactly spent, negative means the objective is blown.

// Objective kinds.
const (
	// KindLatency targets a quantile of a latency stream: end-to-end when
	// Stage is empty, one pipeline stage otherwise.
	KindLatency = "latency"
	// KindErrorRate bounds the fraction of jobs that fail.
	KindErrorRate = "error-rate"
)

// Objective is one configurable service-level objective.
type Objective struct {
	// Name labels the objective in logs, snapshots, and reports.
	Name string `json:"name"`
	// Kind is KindLatency or KindErrorRate.
	Kind string `json:"kind"`
	// Stage scopes a latency objective to one pipeline stage; empty means
	// end-to-end job latency.
	Stage string `json:"stage,omitempty"`
	// Quantile is the targeted latency quantile in (0,1), e.g. 0.99.
	Quantile float64 `json:"quantile,omitempty"`
	// TargetNs is the latency bound for KindLatency.
	TargetNs int64 `json:"target_ns,omitempty"`
	// TargetRate is the allowed failure fraction for KindErrorRate.
	TargetRate float64 `json:"target_rate,omitempty"`
}

// allowedBadFrac is the fraction of samples the objective tolerates out
// of compliance.
func (o Objective) allowedBadFrac() float64 {
	if o.Kind == KindErrorRate {
		return o.TargetRate
	}
	return 1 - o.Quantile
}

// bad reports whether one sample violates the objective.
func (o Objective) bad(latencyNs int64, failed bool) bool {
	if o.Kind == KindErrorRate {
		return failed
	}
	return latencyNs > o.TargetNs
}

// validate rejects malformed objectives at engine construction.
func (o Objective) validate() error {
	switch o.Kind {
	case KindLatency:
		if o.Quantile <= 0 || o.Quantile >= 1 {
			return fmt.Errorf("telemetry: objective %q: latency quantile %v outside (0,1)", o.Name, o.Quantile)
		}
		if o.TargetNs <= 0 {
			return fmt.Errorf("telemetry: objective %q: latency target %d ≤ 0", o.Name, o.TargetNs)
		}
	case KindErrorRate:
		if o.TargetRate <= 0 || o.TargetRate >= 1 {
			return fmt.Errorf("telemetry: objective %q: error-rate target %v outside (0,1)", o.Name, o.TargetRate)
		}
	default:
		return fmt.Errorf("telemetry: objective %q: unknown kind %q", o.Name, o.Kind)
	}
	if o.Name == "" {
		return fmt.Errorf("telemetry: objective with empty name")
	}
	return nil
}

// DefaultObjectives returns the stock service objectives: end-to-end p99
// latency under 250ms and under 2% failed jobs. Callers with calibrated
// workloads pass their own targets instead.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "e2e-p99", Kind: KindLatency, Quantile: 0.99, TargetNs: int64(250 * time.Millisecond)},
		{Name: "error-rate", Kind: KindErrorRate, TargetRate: 0.02},
	}
}

// budgetLedger is the since-start error-budget account of one objective.
type budgetLedger struct {
	total int64
	bad   int64
}

// remaining returns the unspent budget fraction given the allowed bad
// fraction: 1 with no samples, negative when blown.
func (l budgetLedger) remaining(allowed float64) float64 {
	if l.total == 0 || allowed <= 0 {
		return 1
	}
	budget := allowed * float64(l.total)
	return 1 - float64(l.bad)/budget
}

// objectiveState is one objective's live evaluation machinery.
type objectiveState struct {
	obj    Objective
	fast   *sampleWindow
	slow   *sampleWindow
	ledger budgetLedger
}

// observe folds one sample into the objective's windows and ledger.
func (s *objectiveState) observe(nowNs, latencyNs int64, failed bool) {
	bad := s.obj.bad(latencyNs, failed)
	s.fast.Add(nowNs, latencyNs, bad)
	s.slow.Add(nowNs, latencyNs, bad)
	s.ledger.total++
	if bad {
		s.ledger.bad++
	}
}

// burn returns the window's burn rate: bad fraction over allowed
// fraction. A window with no samples burns at 0.
func burn(w *sampleWindow, nowNs int64, allowed float64) float64 {
	frac, ok := w.BadFrac(nowNs)
	if !ok || allowed <= 0 {
		return 0
	}
	return frac / allowed
}

// ObjectiveStatus is one objective's point-in-time evaluation, as served
// on /debug/obs/slo and embedded in bench reports.
type ObjectiveStatus struct {
	Objective
	// Value is the windowed measurement over the slow window: the latency
	// quantile in ns, or the error-rate fraction.
	Value float64 `json:"value"`
	// Met is attainment over the slow window (vacuously true when the
	// window is empty).
	Met bool `json:"met"`
	// FastBurn and SlowBurn are the multi-window burn rates; sustained
	// FastBurn ≥ threshold with SlowBurn ≥ threshold pages.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// BudgetRemaining is the unspent error-budget fraction since start
	// (1 = untouched, ≤ 0 = blown).
	BudgetRemaining float64 `json:"budget_remaining"`
	// Samples is the objective's lifetime sample count.
	Samples int64 `json:"samples"`
}

// status evaluates the objective at nowNs.
func (s *objectiveState) status(nowNs int64) ObjectiveStatus {
	allowed := s.obj.allowedBadFrac()
	st := ObjectiveStatus{
		Objective:       s.obj,
		Met:             true,
		FastBurn:        burn(s.fast, nowNs, allowed),
		SlowBurn:        burn(s.slow, nowNs, allowed),
		BudgetRemaining: s.ledger.remaining(allowed),
		Samples:         s.ledger.total,
	}
	if s.obj.Kind == KindErrorRate {
		if rate, ok := s.slow.BadFrac(nowNs); ok {
			st.Value = rate
			st.Met = rate <= s.obj.TargetRate
		}
		return st
	}
	if q, ok := s.slow.Quantile(nowNs, s.obj.Quantile); ok {
		st.Value = float64(q)
		st.Met = q <= s.obj.TargetNs
	}
	return st
}
