package gpusim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"batchzk/internal/telemetry"
)

// TestNaiveTraceDecimationKeepsTail exercises the TraceCap semantics:
// a run with far more rounds than the cap must still have samples from
// the end of the run (stride decimation), not stop at the cap mid-run.
func TestNaiveTraceDecimationKeepsTail(t *testing.T) {
	spec := testSpec()
	stages := merkleStages(256, 100)
	// 4096 tasks in waves of k = cores/threadsPerTask = 1024/512 = 2
	// → 2048 waves × 9 rounds, far beyond a 64-sample cap.
	rep, err := RunNaive(spec, stages, 4096, 512, Options{TraceCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) == 0 || len(rep.Trace) > 64 {
		t.Fatalf("trace has %d samples for cap 64", len(rep.Trace))
	}
	last := rep.Trace[len(rep.Trace)-1].TimeNs
	if last < rep.TotalNs*0.9 {
		t.Fatalf("trace stops at %.0f of %.0f ns — tail not represented", last, rep.TotalNs)
	}
	// Pipelined runs obey the cap under decimation too.
	pipe, err := RunPipelined(spec, stages, 4096, Options{TraceCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.Trace) == 0 || len(pipe.Trace) > 64 {
		t.Fatalf("pipelined trace has %d samples for cap 64", len(pipe.Trace))
	}
	lastP := pipe.Trace[len(pipe.Trace)-1].TimeNs
	if lastP < pipe.TotalNs*0.9 {
		t.Fatalf("pipelined trace stops at %.0f of %.0f ns", lastP, pipe.TotalNs)
	}
}

// traceEvent mirrors the Chrome trace_event fields the assertions need.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

func exportEvents(t *testing.T, tr *telemetry.Tracer) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("export is not valid trace_event JSON: %v", err)
	}
	return trace.TraceEvents
}

func kernelEvents(events []traceEvent) []traceEvent {
	var out []traceEvent
	for _, e := range events {
		if e.Phase == "X" && strings.HasPrefix(e.Name, "kernel/") {
			out = append(out, e)
		}
	}
	return out
}

// strictOverlap reports whether two half-open intervals intersect, with
// a picosecond tolerance for the ns→µs float conversion of the export.
func strictOverlap(a, b traceEvent) bool {
	const eps = 1e-6 // µs
	return a.TS < b.TS+b.Dur-eps && b.TS < a.TS+a.Dur-eps
}

// TestPipelinedSpansOverlapNaiveDoNot is the acceptance check of the
// telemetry layer: parsed from the Chrome export, a pipelined run shows
// at least two different stages busy at the same simulated instant (the
// paper's full-workload state), while the naive baseline's barrier
// rounds never overlap. It also checks parent/child nesting.
func TestPipelinedSpansOverlapNaiveDoNot(t *testing.T) {
	spec := testSpec()
	stages := merkleStages(1024, 100)

	pipeSink := telemetry.NewSink(telemetry.Config{})
	if _, err := RunPipelined(spec, stages, 16, Options{Telemetry: pipeSink}); err != nil {
		t.Fatal(err)
	}
	naiveSink := telemetry.NewSink(telemetry.Config{})
	if _, err := RunNaive(spec, stages, 16, 512, Options{Telemetry: naiveSink}); err != nil {
		t.Fatal(err)
	}

	pipeEvents := exportEvents(t, pipeSink.Tracer)
	naiveEvents := exportEvents(t, naiveSink.Tracer)
	assertNested(t, pipeEvents)
	assertNested(t, naiveEvents)

	// Pipelined: ≥ 2 stage kernels (distinct lanes) overlap in time.
	pk := kernelEvents(pipeEvents)
	if len(pk) == 0 {
		t.Fatal("pipelined run emitted no kernel spans")
	}
	overlapping := false
	for i := 0; i < len(pk) && !overlapping; i++ {
		for j := i + 1; j < len(pk); j++ {
			if pk[i].TID != pk[j].TID && strictOverlap(pk[i], pk[j]) {
				overlapping = true
				break
			}
		}
	}
	if !overlapping {
		t.Fatal("pipelined run shows no overlapping stages")
	}

	// Naive: barrier rounds — no two kernel spans may overlap at all.
	nk := kernelEvents(naiveEvents)
	if len(nk) == 0 {
		t.Fatal("naive run emitted no kernel spans")
	}
	for i := 0; i < len(nk); i++ {
		for j := i + 1; j < len(nk); j++ {
			if strictOverlap(nk[i], nk[j]) {
				t.Fatalf("naive kernels overlap: %q [%.3f,%.3f) and %q [%.3f,%.3f)",
					nk[i].Name, nk[i].TS, nk[i].TS+nk[i].Dur,
					nk[j].Name, nk[j].TS, nk[j].TS+nk[j].Dur)
			}
		}
	}
}

// assertNested verifies every span with a parent lies within the parent's
// time interval.
func assertNested(t *testing.T, events []traceEvent) {
	t.Helper()
	byID := map[float64]traceEvent{}
	for _, e := range events {
		if e.Phase != "X" {
			continue
		}
		if id, ok := e.Args["id"].(float64); ok {
			byID[id] = e
		}
	}
	const eps = 1e-3 // µs tolerance for float accumulation
	nested := 0
	for _, e := range events {
		if e.Phase != "X" {
			continue
		}
		pid, ok := e.Args["parent"].(float64)
		if !ok {
			continue
		}
		parent, ok := byID[pid]
		if !ok {
			t.Fatalf("span %q links to unknown parent %v", e.Name, pid)
		}
		if e.TS < parent.TS-eps || e.TS+e.Dur > parent.TS+parent.Dur+eps {
			t.Fatalf("span %q [%.3f,%.3f) escapes parent %q [%.3f,%.3f)",
				e.Name, e.TS, e.TS+e.Dur, parent.Name, parent.TS, parent.TS+parent.Dur)
		}
		nested++
	}
	if nested == 0 {
		t.Fatal("no parent-linked spans to check")
	}
}

// TestRunTelemetryMetrics checks the metric side of a simulated run.
func TestRunTelemetryMetrics(t *testing.T) {
	spec := testSpec()
	stages := merkleStages(1024, 100)
	stages[0].HostBytesIn = 4096 // dynamic loading of the leaf blocks
	stages[len(stages)-1].HostBytesOut = 32
	sink := telemetry.NewSink(telemetry.Config{})
	rep, err := RunPipelined(spec, stages, 32, Options{Telemetry: sink, TaskBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s := sink.Metrics.Snapshot()
	if s.Counters["gpusim/runs/pipelined"] != 1 {
		t.Fatalf("runs counter: %+v", s.Counters)
	}
	if s.Counters["gpusim/kernels/launched"] != int64(len(stages)) {
		t.Fatalf("kernel launches = %d, want %d", s.Counters["gpusim/kernels/launched"], len(stages))
	}
	if s.Counters["gpusim/host/bytes_in"] <= 0 {
		t.Fatal("no host bytes recorded")
	}
	if s.Gauges["gpusim/mem/peak_bytes"].Value != rep.PeakDeviceBytes {
		t.Fatal("peak memory gauge mismatch")
	}
	if s.Histograms["gpusim/stage/ns"].Count != int64(len(stages)) {
		t.Fatal("stage histogram not populated")
	}

	// The global sink is picked up when no explicit sink is given.
	gs := telemetry.NewSink(telemetry.Config{})
	telemetry.Enable(gs)
	defer telemetry.Enable(nil)
	if _, err := RunNaive(spec, stages, 4, 512, Options{}); err != nil {
		t.Fatal(err)
	}
	if gs.Metrics.Snapshot().Counters["gpusim/runs/naive"] != 1 {
		t.Fatal("global sink did not record the naive run")
	}
}
