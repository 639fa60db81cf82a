package telemetry

import (
	"math"
	"testing"
	"time"
)

func latencyState(q float64, targetNs int64) *objectiveState {
	return &objectiveState{
		obj:  Objective{Name: "t-lat", Kind: KindLatency, Quantile: q, TargetNs: targetNs},
		fast: newSampleWindow(10 * time.Second),
		slow: newSampleWindow(time.Minute),
	}
}

func errorState(rate float64) *objectiveState {
	return &objectiveState{
		obj:  Objective{Name: "t-err", Kind: KindErrorRate, TargetRate: rate},
		fast: newSampleWindow(10 * time.Second),
		slow: newSampleWindow(time.Minute),
	}
}

func TestObjectiveValidate(t *testing.T) {
	bad := []Objective{
		{Name: "x", Kind: KindLatency, Quantile: 0, TargetNs: 1},
		{Name: "x", Kind: KindLatency, Quantile: 1, TargetNs: 1},
		{Name: "x", Kind: KindLatency, Quantile: 0.99, TargetNs: 0},
		{Name: "x", Kind: KindErrorRate, TargetRate: 0},
		{Name: "x", Kind: KindErrorRate, TargetRate: 1},
		{Name: "x", Kind: "bogus"},
		{Name: "", Kind: KindLatency, Quantile: 0.5, TargetNs: 1},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("objective %d (%+v): validate passed, want error", i, o)
		}
	}
	for _, o := range DefaultObjectives() {
		if err := o.validate(); err != nil {
			t.Errorf("default objective %q invalid: %v", o.Name, err)
		}
	}
}

// TestBurnRateEmptyWindow: no samples must mean no burn — an idle service
// is not violating its SLO.
func TestBurnRateEmptyWindow(t *testing.T) {
	s := latencyState(0.99, 100)
	st := s.status(0)
	if st.FastBurn != 0 || st.SlowBurn != 0 {
		t.Fatalf("empty window burn = %v/%v, want 0/0", st.FastBurn, st.SlowBurn)
	}
	if !st.Met {
		t.Fatal("empty window must meet its objective vacuously")
	}
	if st.BudgetRemaining != 1 {
		t.Fatalf("empty ledger budget = %v, want 1", st.BudgetRemaining)
	}
}

// TestBurnRateSingleSample: one good sample burns 0; one bad sample burns
// at 1/allowed (every sample in the window is bad).
func TestBurnRateSingleSample(t *testing.T) {
	good := latencyState(0.99, 100)
	good.observe(0, 50, false)
	if st := good.status(0); st.FastBurn != 0 || !st.Met {
		t.Fatalf("single good sample: burn=%v met=%v, want 0, true", st.FastBurn, st.Met)
	}

	bad := latencyState(0.99, 100)
	bad.observe(0, 500, false) // over target
	st := bad.status(0)
	wantBurn := 1 / bad.obj.allowedBadFrac() // 1 / 0.01 = 100
	if math.Abs(st.FastBurn-wantBurn) > 1e-6 || math.Abs(st.SlowBurn-wantBurn) > 1e-6 {
		t.Fatalf("single bad sample burn = %v/%v, want %v", st.FastBurn, st.SlowBurn, wantBurn)
	}
	if st.Met {
		t.Fatal("single over-target sample: p99 must be unmet")
	}
}

// TestBurnRateSteadyViolation checks the canonical reading: a service
// failing at exactly N× its allowed bad fraction burns at N.
func TestBurnRateSteadyViolation(t *testing.T) {
	s := errorState(0.02)
	now := int64(time.Second)
	for i := 0; i < 100; i++ {
		s.observe(now, 10, i < 4) // 4% failures against a 2% target
	}
	st := s.status(now)
	if math.Abs(st.FastBurn-2) > 1e-6 || math.Abs(st.SlowBurn-2) > 1e-6 {
		t.Fatalf("4%% failures on 2%% target: burn = %v/%v, want 2", st.FastBurn, st.SlowBurn)
	}
	if st.Met {
		t.Fatal("error rate above target must be unmet")
	}
	if math.Abs(st.Value-0.04) > 1e-9 {
		t.Fatalf("error-rate value = %v, want 0.04", st.Value)
	}
}

// TestBurnRateClockSkewedSamples: samples with wandering timestamps still
// land in the windows and produce a finite, sane burn.
func TestBurnRateClockSkewedSamples(t *testing.T) {
	s := errorState(0.1)
	now := int64(10 * time.Minute)
	s.observe(now, 10, true)
	s.observe(now-int64(3*time.Minute), 10, true) // stale stamp, clamped
	s.observe(now+int64(time.Second), 10, false)  // slightly future stamp
	st := s.status(now + int64(time.Second))
	if st.Samples != 3 {
		t.Fatalf("ledger samples = %d, want 3 (skewed samples kept)", st.Samples)
	}
	if st.SlowBurn <= 0 || math.IsInf(st.SlowBurn, 0) || math.IsNaN(st.SlowBurn) {
		t.Fatalf("skewed-sample burn = %v, want finite positive", st.SlowBurn)
	}
}

// TestFastSlowWindowDivergence: after a burst of failures stops, the fast
// window forgives before the slow window does — the property multi-window
// alerting depends on.
func TestFastSlowWindowDivergence(t *testing.T) {
	s := errorState(0.02)
	start := int64(time.Minute)
	for i := 0; i < 50; i++ {
		s.observe(start, 10, true) // total outage burst
	}
	// 30s later: fast (10s) window has slid past the burst, slow (60s) has not.
	later := start + int64(30*time.Second)
	for i := 0; i < 5; i++ {
		s.observe(later, 10, false)
	}
	st := s.status(later)
	if st.FastBurn != 0 {
		t.Fatalf("fast burn 30s after burst = %v, want 0", st.FastBurn)
	}
	if st.SlowBurn <= 1 {
		t.Fatalf("slow burn 30s after burst = %v, want > 1 (burst still in window)", st.SlowBurn)
	}
}

func TestBudgetLedger(t *testing.T) {
	var l budgetLedger
	if r := l.remaining(0.02); r != 1 {
		t.Fatalf("empty ledger remaining = %v, want 1", r)
	}
	// 1000 samples at exactly the allowed rate: budget exactly spent.
	l = budgetLedger{total: 1000, bad: 20}
	if r := l.remaining(0.02); math.Abs(r) > 1e-9 {
		t.Fatalf("at-rate ledger remaining = %v, want 0", r)
	}
	// Half the allowed rate: half the budget left.
	l = budgetLedger{total: 1000, bad: 10}
	if r := l.remaining(0.02); math.Abs(r-0.5) > 1e-9 {
		t.Fatalf("half-rate ledger remaining = %v, want 0.5", r)
	}
	// Twice the allowed rate: blown, negative.
	l = budgetLedger{total: 1000, bad: 40}
	if r := l.remaining(0.02); r >= 0 {
		t.Fatalf("blown ledger remaining = %v, want negative", r)
	}
}

func TestLatencyObjectiveStatusValue(t *testing.T) {
	s := latencyState(0.5, 100)
	now := int64(time.Second)
	for _, v := range []int64{10, 20, 90, 95, 400} {
		s.observe(now, v, false)
	}
	st := s.status(now)
	if st.Value != 90 {
		t.Fatalf("p50 value = %v, want 90", st.Value)
	}
	if !st.Met {
		t.Fatal("p50=90 against 100 target: want met")
	}
	// 1 of 5 samples over target vs 50% allowed → burn 0.2/0.5 = 0.4.
	if math.Abs(st.SlowBurn-0.4) > 1e-6 {
		t.Fatalf("slow burn = %v, want 0.4", st.SlowBurn)
	}
}
