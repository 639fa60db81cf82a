package batchzk

import (
	"bytes"
	"encoding/json"
	"testing"

	"batchzk/internal/core"
	"batchzk/internal/merkle"
	"batchzk/internal/perfmodel"
	"batchzk/internal/pipeline"
)

// TestTelemetryCrossLayer is the end-to-end acceptance check for the
// observability layer: with the process-wide sink enabled, one real
// prover batch, one pipelined module schedule, and one simulated device
// run must all record into the same sink — nonzero counters and
// histograms for every prover stage, and a single valid Chrome
// trace_event export holding correctly nested spans from the "core",
// "pipeline", and "gpusim" layers.
func TestTelemetryCrossLayer(t *testing.T) {
	sink := NewTelemetrySink(TelemetryConfig{})
	EnableTelemetry(sink)
	defer EnableTelemetry(nil)

	// Layer 1: the real batch prover.
	c, err := RandomCircuit(64, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewBatchProver(c, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{ID: i, Public: RandVector(2), Secret: RandVector(2)}
	}
	for _, r := range prover.ProveBatch(jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	// Layer 2: a pipelined module schedule (functional Merkle batch).
	tasks := make([][]merkle.Block, 3)
	for i := range tasks {
		tasks[i] = make([]merkle.Block, 4)
		for j := range tasks[i] {
			tasks[i][j][0] = byte(i*16 + j)
		}
	}
	if _, err := pipeline.BatchMerkle(tasks); err != nil {
		t.Fatal(err)
	}

	// Layer 3: a simulated device run (picks the sink up globally).
	if _, err := pipeline.SimulateMerkle(perfmodel.GH200(), perfmodel.GPUCosts(), 1<<10, 8, pipeline.Pipelined, true); err != nil {
		t.Fatal(err)
	}

	// Metrics: all four prover stages have counts and latency mass.
	snap := sink.Metrics.Snapshot()
	for _, name := range core.StageNames {
		h, ok := snap.Histograms["core/stage/"+name+"/ns"]
		if !ok || h.Count == 0 || h.Sum <= 0 {
			t.Fatalf("stage %q histogram missing or empty: %+v", name, h)
		}
		if h.Count != int64(len(jobs)) {
			t.Fatalf("stage %q observed %d jobs, want %d", name, h.Count, len(jobs))
		}
	}
	if snap.Counters["core/jobs/completed"] != int64(len(jobs)) {
		t.Fatalf("completed counter = %d", snap.Counters["core/jobs/completed"])
	}
	if snap.Counters["pipeline/merkle/cycles"] == 0 {
		t.Fatal("pipeline module recorded no cycles")
	}
	if snap.Counters["gpusim/runs/pipelined"] == 0 {
		t.Fatal("simulated run not recorded")
	}
	if snap.Histograms["core/job/e2e_ns"].Count != int64(len(jobs)) {
		t.Fatal("per-job end-to-end latency not recorded")
	}

	// Trace: one export with nested spans from all three layers.
	var buf bytes.Buffer
	if err := sink.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("export is not valid trace_event JSON: %v", err)
	}

	// Map pid → layer via the process_name metadata events.
	layerOf := map[int]string{}
	for _, e := range trace.TraceEvents {
		if e.Phase == "M" && e.Name == "process_name" {
			if n, ok := e.Args["name"].(string); ok {
				layerOf[e.PID] = n
			}
		}
	}
	seen := map[string]bool{}
	byID := map[float64][2]float64{} // id → [ts, ts+dur]
	for _, e := range trace.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		seen[layerOf[e.PID]] = true
		if id, ok := e.Args["id"].(float64); ok {
			byID[id] = [2]float64{e.TS, e.TS + e.Dur}
		}
	}
	for _, layer := range []string{"core", "pipeline", "gpusim"} {
		if !seen[layer] {
			t.Fatalf("no spans from layer %q in export (saw %v)", layer, seen)
		}
	}

	// Every parent-linked span lies inside its parent's interval.
	const eps = 1e-3 // µs tolerance for ns→µs conversion
	nested := 0
	for _, e := range trace.TraceEvents {
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
		if e.TS < parent[0]-eps || e.TS+e.Dur > parent[1]+eps {
			t.Fatalf("span %q [%.3f,%.3f) escapes parent [%.3f,%.3f)",
				e.Name, e.TS, e.TS+e.Dur, parent[0], parent[1])
		}
		nested++
	}
	if nested == 0 {
		t.Fatal("no parent-linked spans in export")
	}
}

// TestTelemetryDisabledIsInert checks the default state: with no sink
// enabled, the instrumented paths still work and record nothing.
func TestTelemetryDisabledIsInert(t *testing.T) {
	if ActiveTelemetry() != nil {
		t.Fatal("telemetry unexpectedly enabled")
	}
	c, err := RandomCircuit(64, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewBatchProver(c, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range prover.ProveBatch([]Job{{ID: 0, Public: RandVector(2), Secret: RandVector(2)}}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if prover.Stats().Completed != 1 {
		t.Fatal("prover did not complete the job with telemetry off")
	}
}
