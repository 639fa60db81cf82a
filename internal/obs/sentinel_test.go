package obs

import (
	"strings"
	"testing"
)

func testSentinel() *Sentinel {
	return NewSentinel(SentinelConfig{
		Alpha: 0.2, DegradeFactor: 2, FloorFactor: 4,
		MinSamples: 4, RaiseAfter: 3, ClearAfter: 3,
	})
}

// stageNs and slowStageNs are a healthy stage latency and a 10× slowdown
// of it, in ns: large enough that the excess clears minStageExcessNs.
const stageNs, slowStageNs = 10e6, 100e6

// feedHealthy warms a stream's EWMA baseline past MinSamples.
func feedHealthy(s *Sentinel, kind, subject string, v float64, n int) {
	for i := 0; i < n; i++ {
		s.Observe(kind, subject, v, int64(i))
	}
}

func TestSentinelRaisesAfterConsecutiveBreaches(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertKernelRegression, "ntt", 100, 8)
	// Two breaches: below RaiseAfter, no alert yet.
	if a := s.Observe(AlertKernelRegression, "ntt", 1000, 100); a != nil {
		t.Fatalf("alert after 1 breach: %+v", a)
	}
	if a := s.Observe(AlertKernelRegression, "ntt", 1000, 101); a != nil {
		t.Fatalf("alert after 2 breaches: %+v", a)
	}
	a := s.Observe(AlertKernelRegression, "ntt", 1000, 102)
	if a == nil {
		t.Fatal("no alert after RaiseAfter consecutive breaches")
	}
	if a.Kind != AlertKernelRegression || a.Subject != "ntt" || !a.Active() {
		t.Fatalf("bad alert: %+v", a)
	}
	if a.Baseline != 100 {
		t.Fatalf("alert baseline = %v, want the EWMA 100", a.Baseline)
	}
	if len(s.ActiveAlerts()) != 1 {
		t.Fatalf("active alerts = %d, want 1", len(s.ActiveAlerts()))
	}
	// Continued breaching must not raise duplicates.
	if a := s.Observe(AlertKernelRegression, "ntt", 1000, 103); a != nil {
		t.Fatalf("duplicate alert while active: %+v", a)
	}
	if len(s.ActiveAlerts()) != 1 {
		t.Fatal("continued breach duplicated the alert")
	}
}

// TestSentinelNoFlapping oscillates a value across the threshold every
// observation: hysteresis must keep the alert count at zero, because the
// streak never reaches RaiseAfter.
func TestSentinelNoFlapping(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertStageRegression, "commit", stageNs, 8)
	for i := 0; i < 100; i++ {
		v := stageNs
		if i%2 == 0 {
			v = slowStageNs // breach on even observations, recover on odd
		}
		if a := s.Observe(AlertStageRegression, "commit", v, int64(200+i)); a != nil {
			t.Fatalf("flapping stream raised an alert at i=%d: %+v", i, a)
		}
	}
	if n := len(s.Alerts()); n != 0 {
		t.Fatalf("flapping stream produced %d alerts, want 0", n)
	}
}

// TestSentinelClearsAfterRecovery drives raise → sustained recovery →
// clear, and checks the history entry mirrors the clear stamp.
func TestSentinelClearsAfterRecovery(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertStageRegression, "opening", stageNs, 8)
	for i := 0; i < 3; i++ {
		s.Observe(AlertStageRegression, "opening", slowStageNs, int64(100+i))
	}
	if len(s.ActiveAlerts()) != 1 {
		t.Fatal("breach did not raise")
	}
	// Two healthy observations: not enough to clear.
	s.Observe(AlertStageRegression, "opening", stageNs, 200)
	s.Observe(AlertStageRegression, "opening", stageNs, 201)
	if len(s.ActiveAlerts()) != 1 {
		t.Fatal("alert cleared before ClearAfter healthy observations")
	}
	s.Observe(AlertStageRegression, "opening", stageNs, 202)
	if len(s.ActiveAlerts()) != 0 {
		t.Fatal("alert did not clear after ClearAfter healthy observations")
	}
	hist := s.Alerts()
	if len(hist) != 1 || hist[0].Active() || hist[0].ClearedNs != 202 {
		t.Fatalf("history after clear: %+v", hist)
	}
}

// TestSentinelStageExcessFloor drives default-configured stage streams:
// a 100 µs stage running 7× slow for a long stretch — what a busy host
// does to a short stage — never raises, because its excess stays under
// minStageExcessNs; a 10 ms stage at 10× raises after RaiseAfter
// observations and clears after ClearAfter healthy ones.
func TestSentinelStageExcessFloor(t *testing.T) {
	s := NewSentinel(SentinelConfig{})
	now := int64(0)
	observe := func(subject string, v float64) *Alert {
		now++
		return s.Observe(AlertStageRegression, subject, v, now)
	}
	for i := range 20 {
		observe("fast", 100e3+float64(i%3)*5e3)
		observe("slow", 10e6+float64(i%3)*0.5e6)
	}
	for i := range 30 {
		if a := observe("fast", 700e3); a != nil {
			t.Fatalf("100 µs stage at 7× raised at spike %d: %+v", i, a)
		}
	}
	for i := range 3 {
		a := observe("slow", 100e6)
		if (a != nil) != (i == 2) {
			t.Fatalf("10 ms stage at 10×: observation %d raised %v, want a raise at the 3rd only", i, a)
		}
	}
	for i := range 3 {
		observe("slow", 10e6)
		if active := len(s.ActiveAlerts()); active != 1-i/2 {
			t.Fatalf("after %d healthy observations: %d active alerts", i+1, active)
		}
	}
	if hist := s.Alerts(); len(hist) != 1 || hist[0].Subject != "slow" || hist[0].Active() {
		t.Fatalf("alert history = %+v, want one cleared alert on slow", hist)
	}
}

// TestSentinelEWMAFrozenDuringBreach: the baseline must not absorb
// breaching samples, or the anomaly would become the new normal and the
// alert would self-clear while the regression persists.
func TestSentinelEWMAFrozenDuringBreach(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertKernelRegression, "msm", 100, 8)
	// A long sustained regression: if the EWMA chased it, later samples at
	// the same degraded level would stop counting as breaches.
	raised := false
	for i := 0; i < 50; i++ {
		if a := s.Observe(AlertKernelRegression, "msm", 1000, int64(100+i)); a != nil {
			raised = true
		}
	}
	if !raised {
		t.Fatal("sustained regression never raised")
	}
	if len(s.ActiveAlerts()) != 1 {
		t.Fatal("alert self-cleared during a sustained regression")
	}
	// Recovery to the original level must clear against the original baseline.
	for i := 0; i < 3; i++ {
		s.Observe(AlertKernelRegression, "msm", 100, int64(200+i))
	}
	if len(s.ActiveAlerts()) != 0 {
		t.Fatal("alert did not clear after recovery to the original level")
	}
}

// TestSentinelRooflineFloor: a value far above the calibrated floor
// breaches immediately, before any EWMA history exists.
func TestSentinelRooflineFloor(t *testing.T) {
	s := testSentinel()
	s.SetFloor("ntt-butterfly", 10) // floor 10 ns/elem, FloorFactor 4
	var a *Alert
	for i := 0; i < 3; i++ {
		a = s.Observe(AlertKernelRegression, "ntt-butterfly", 100, int64(i))
	}
	if a == nil {
		t.Fatal("floor breach with no EWMA history did not raise")
	}
	if a.Baseline != 10 || !strings.Contains(a.Reason, "roofline floor") {
		t.Fatalf("floor alert: baseline=%v reason=%q", a.Baseline, a.Reason)
	}
	// Within FloorFactor × floor is healthy regardless of magnitude.
	s2 := testSentinel()
	s2.SetFloor("ntt-butterfly", 10)
	for i := 0; i < 20; i++ {
		if a := s2.Observe(AlertKernelRegression, "ntt-butterfly", 39, int64(i)); a != nil {
			t.Fatalf("value under FloorFactor×floor raised: %+v", a)
		}
	}
}

// TestSentinelJudge drives the engine-computed-condition path (SLO burn,
// quarantine storms) through the same hysteresis.
func TestSentinelJudge(t *testing.T) {
	s := testSentinel()
	var a *Alert
	for i := 0; i < 3; i++ {
		a = s.Judge(AlertQuarantineStorm, "fleet", SeverityCritical, true, 0.5, 0.25, "storm", int64(i))
	}
	if a == nil || a.Severity != SeverityCritical {
		t.Fatalf("judge did not raise critical: %+v", a)
	}
	for i := 0; i < 3; i++ {
		s.Judge(AlertQuarantineStorm, "fleet", SeverityCritical, false, 0.1, 0.25, "", int64(10+i))
	}
	if len(s.ActiveAlerts()) != 0 {
		t.Fatal("judged alert did not clear")
	}
}

// TestSentinelIndependentStreams: one subject's breach must not leak into
// another subject's track.
func TestSentinelIndependentStreams(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertStageRegression, "commit", stageNs, 8)
	feedHealthy(s, AlertStageRegression, "opening", stageNs, 8)
	for i := 0; i < 3; i++ {
		s.Observe(AlertStageRegression, "commit", slowStageNs, int64(100+i))
		s.Observe(AlertStageRegression, "opening", stageNs, int64(100+i))
	}
	active := s.ActiveAlerts()
	if len(active) != 1 || active[0].Subject != "commit" {
		t.Fatalf("active alerts = %+v, want exactly commit", active)
	}
}

func TestSentinelNilSafe(t *testing.T) {
	var s *Sentinel
	s.SetFloor("x", 1)
	s.SetFloors(map[string]float64{"y": 2})
	if a := s.Observe("k", "s", 1, 0); a != nil {
		t.Fatal("nil sentinel observed")
	}
	if a := s.Judge("k", "s", SeverityWarning, true, 1, 1, "", 0); a != nil {
		t.Fatal("nil sentinel judged")
	}
	if s.ActiveAlerts() != nil || s.Alerts() != nil {
		t.Fatal("nil sentinel returned alerts")
	}
}

func TestSentinelAlertCap(t *testing.T) {
	s := NewSentinel(SentinelConfig{MinSamples: 1, RaiseAfter: 1, ClearAfter: 1, AlertCap: 4, DegradeFactor: 2})
	for i := 0; i < 10; i++ {
		subj := "s" + string(rune('a'+i))
		feedHealthy(s, AlertKernelRegression, subj, 100, 2)
		s.Observe(AlertKernelRegression, subj, 1000, int64(100+i))
	}
	if n := len(s.Alerts()); n != 4 {
		t.Fatalf("alert history = %d entries, want capped at 4", n)
	}
}
