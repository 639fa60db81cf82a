package telemetry

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

func TestMemSamplerPhases(t *testing.T) {
	s := NewSink(0)
	// A huge interval makes the ticker irrelevant: only the explicit
	// Sample/SetPhase/Stop calls below contribute, so counts are exact.
	m := StartMemSampler(s, time.Hour)

	m.SetPhase("wave00")
	hold := make([]byte, 1<<20)
	m.Sample()
	m.SetPhase("wave01")
	m.Sample()
	phases := m.Stop()
	_ = hold[0]

	names := m.PhaseNames()
	want := []string{"init", "wave00", "wave01"}
	if len(names) != len(want) {
		t.Fatalf("phases: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phases: %v, want %v", names, want)
		}
	}
	// Phases() preserves entry order; "init" is first.
	if phases[0].Name != "init" || phases[1].Name != "wave00" {
		t.Fatalf("phase order: %+v", phases)
	}
	for _, p := range phases {
		if p.Samples == 0 || p.PeakHeapAllocBytes == 0 || p.PeakHeapSysBytes == 0 {
			t.Fatalf("phase %s has empty high-water record: %+v", p.Name, p)
		}
	}
	if m.PeakHeapAllocBytes() == 0 {
		t.Fatal("no process-wide peak recorded")
	}
	peaks := m.PhasePeaks()
	if peaks["wave00"] == 0 {
		t.Fatalf("phase peaks: %v", peaks)
	}

	// Every sample feeds the registry gauges, whose Peak values are the
	// live view of the same high-water marks.
	g := s.Gauge("mem/heap_alloc_bytes")
	if g.Value() == 0 || g.Peak() == 0 {
		t.Fatalf("gauge not fed: value %d peak %d", g.Value(), g.Peak())
	}
	if uint64(g.Peak()) != m.PeakHeapAllocBytes() {
		t.Fatalf("gauge peak %d != sampler peak %d", g.Peak(), m.PeakHeapAllocBytes())
	}

	// Stop is idempotent.
	if again := m.Stop(); len(again) != len(phases) {
		t.Fatalf("second Stop: %+v", again)
	}
}

// TestMemSamplerPhaseReset: re-entering a phase name starts a fresh
// high-water window. Without the reset, a streaming gate comparing
// waves would see every wave inherit the session max and read as flat
// even when memory balloons (or as ballooning when it is flat).
func TestMemSamplerPhaseReset(t *testing.T) {
	m := StartMemSampler(NewSink(0), time.Hour)

	m.SetPhase("wave")
	hold := make([]byte, 16<<20)
	m.Sample()
	firstPeak := m.PhasePeaks()["wave"]
	_ = hold[0]
	hold = nil
	runtime.GC()

	m.SetPhase("idle")
	m.SetPhase("wave") // second visit: the record must start over
	m.Sample()
	phases := m.Stop()

	secondPeak := m.PhasePeaks()["wave"]
	if secondPeak >= firstPeak {
		t.Fatalf("revisited phase kept the old high-water mark: first %d, second %d", firstPeak, secondPeak)
	}
	// Entry order lists each name once, in first-entry order.
	var names []string
	for _, p := range phases {
		names = append(names, p.Name)
	}
	want := []string{"init", "wave", "idle"}
	if len(names) != len(want) {
		t.Fatalf("phases: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phases: %v, want %v", names, want)
		}
	}
	// Working-set attribution: every visited phase has a baseline, and
	// the 16 MiB hold is attributed to the first wave's working set —
	// which we can only observe via the live record before the revisit,
	// i.e. peak − baseline at first sample time.
	for _, p := range phases {
		if p.Samples > 0 && p.BaselineHeapAllocBytes == 0 {
			t.Errorf("phase %s has no baseline: %+v", p.Name, p)
		}
		if p.WorkingSetBytes != p.PeakHeapAllocBytes-p.BaselineHeapAllocBytes &&
			!(p.WorkingSetBytes == 0 && p.PeakHeapAllocBytes <= p.BaselineHeapAllocBytes) {
			t.Errorf("phase %s working set inconsistent: %+v", p.Name, p)
		}
	}
}

func TestMemSamplerBackgroundTicks(t *testing.T) {
	m := StartMemSampler(NewSink(0), time.Millisecond)
	// Wait on the samples themselves, not on a fixed sleep: the start
	// sample plus two ticks, however slowly a loaded host schedules them.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if p := m.Phases(); len(p) == 1 && p[0].Samples >= 3 {
			break
		}
	}
	phases := m.Stop()
	if len(phases) != 1 || phases[0].Samples < 3 {
		t.Fatalf("background ticker barely sampled: %+v", phases)
	}
}

func TestNilMemSamplerSafety(t *testing.T) {
	var m *MemSampler
	m.SetPhase("x")
	m.Sample()
	if m.PeakHeapAllocBytes() != 0 || m.Phases() != nil || m.PhasePeaks() != nil || m.PhaseNames() != nil {
		t.Fatal("nil sampler leaked state")
	}
	if m.Stop() != nil {
		t.Fatal("nil Stop returned phases")
	}
}

// TestDebugServerReenable is the double-registration guard: enabling
// telemetry, serving debug handlers, disabling, and enabling again must
// not panic on expvar re-registration (expvar.Publish panics on reuse).
func TestDebugServerReenable(t *testing.T) {
	defer Enable(nil)
	for round := 0; round < 3; round++ {
		s := NewSink(0)
		Enable(s)
		srv, err := ServeDebug("127.0.0.1:0", s)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		resp, err := http.Get("http://" + srv.Addr + "/debug/telemetry/timeline")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: timeline endpoint returned %s", round, resp.Status)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		Enable(nil)
	}
}
