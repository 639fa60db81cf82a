package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"batchzk/internal/core"
	"batchzk/internal/encoder"
	"batchzk/internal/gpusim"
	"batchzk/internal/perfmodel"
	"batchzk/internal/pipeline"
	"batchzk/internal/telemetry"
)

// Machine-readable bench reports: a Scenario runs one workload under both
// execution schemes, a Report captures the numbers a perf trajectory
// cares about (throughput, latency percentiles, the utilization
// breakdown, peak device memory), and Compare gates regressions between
// two reports of the same scenario. Reports serialize to
// BENCH_<scenario>.json via WriteJSON/ReadReport; SchemaVersion guards
// against diffing incompatible files.

// ReportSchemaVersion identifies the BENCH_*.json layout. Bump it when a
// field changes meaning; ReadReport rejects mismatches.
const ReportSchemaVersion = 1

// Scenario is a named, reproducible workload for bench reports.
type Scenario struct {
	Name  string
	Title string
	Batch int
	// SLOTargetP99Ns is the scenario's per-task p99 latency budget for
	// the pipelined scheme — a fixed, generous bound (several times the
	// healthy measurement) so the SLO block in the report tells a drift
	// story rather than tautologically tracking the run it came from.
	SLOTargetP99Ns int64
	// build produces the stage list, the per-task device footprint, and
	// the naive scheme's per-task thread budget for a device.
	build func(spec gpusim.DeviceSpec, costs perfmodel.OpCosts) ([]gpusim.Stage, int64, int, error)
}

// SLOErrorBudget is the allowed task failure fraction every scenario
// reports against. Report runs abort on the first task error, so a
// written report is always clean here; the objective documents the
// budget a scenario's workload is held to.
const SLOErrorBudget = 0.01

// Scenarios returns the scenario registry in presentation order. "tiny"
// exists for smoke tests (seconds-scale CI); "quickstart" is the README's
// first-contact workload; the rest cover each module family plus the
// composed system pipeline.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:           "tiny",
			Title:          "smoke: Merkle trees over 2^8 blocks, batch 32",
			Batch:          32,
			SLOTargetP99Ns: 100 * int64(time.Microsecond),
			build: func(spec gpusim.DeviceSpec, costs perfmodel.OpCosts) ([]gpusim.Stage, int64, int, error) {
				stages, err := pipeline.MerkleStages(1<<8, costs)
				return stages, pipeline.MerkleTaskBytes(1 << 8), 1 << 8, err
			},
		},
		{
			Name:           "quickstart",
			Title:          "Merkle trees over 2^12 blocks, batch 256",
			Batch:          256,
			SLOTargetP99Ns: int64(time.Millisecond),
			build: func(spec gpusim.DeviceSpec, costs perfmodel.OpCosts) ([]gpusim.Stage, int64, int, error) {
				stages, err := pipeline.MerkleStages(1<<12, costs)
				return stages, pipeline.MerkleTaskBytes(1 << 12), 1 << 12, err
			},
		},
		{
			Name:           "merkle",
			Title:          "Merkle trees over 2^16 blocks, batch 512",
			Batch:          512,
			SLOTargetP99Ns: 20 * int64(time.Millisecond),
			build: func(spec gpusim.DeviceSpec, costs perfmodel.OpCosts) ([]gpusim.Stage, int64, int, error) {
				stages, err := pipeline.MerkleStages(1<<16, costs)
				return stages, pipeline.MerkleTaskBytes(1 << 16), 1 << 16, err
			},
		},
		{
			Name:           "sumcheck",
			Title:          "sum-check proofs over 2^16 tables, batch 512",
			Batch:          512,
			SLOTargetP99Ns: 5 * int64(time.Millisecond),
			build: func(spec gpusim.DeviceSpec, costs perfmodel.OpCosts) ([]gpusim.Stage, int64, int, error) {
				stages, err := pipeline.SumcheckStages(16, costs)
				return stages, pipeline.SumcheckTaskBytes(16), 1 << 15, err
			},
		},
		{
			Name:           "encoder",
			Title:          "linear-time encodings of 2^14 messages, batch 256",
			Batch:          256,
			SLOTargetP99Ns: 10 * int64(time.Millisecond),
			build: func(spec gpusim.DeviceSpec, costs perfmodel.OpCosts) ([]gpusim.Stage, int64, int, error) {
				const msgLen = 1 << 14
				work, err := encoder.WorkModel(msgLen, encoder.DefaultParams())
				if err != nil {
					return nil, 0, 0, err
				}
				stages := pipeline.EncoderStagesFromWork(work, msgLen, costs, true)
				return stages, pipeline.EncoderTaskBytesForLen(msgLen, len(work)), msgLen, nil
			},
		},
		{
			Name:           "system",
			Title:          "full proof pipeline at scale 2^12, batch 64",
			Batch:          64,
			SLOTargetP99Ns: 10 * int64(time.Millisecond),
			build: func(spec gpusim.DeviceSpec, costs perfmodel.OpCosts) ([]gpusim.Stage, int64, int, error) {
				shape, err := core.ShapeForScale(1 << 12)
				if err != nil {
					return nil, 0, 0, err
				}
				stages, err := core.SystemStages(shape, costs, encoder.DefaultParams())
				if err != nil {
					return nil, 0, 0, err
				}
				return stages, core.SystemTaskBytes(shape), shape.NumWires, nil
			},
		},
	}
}

// ScenarioByName resolves a registry entry.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("bench: unknown scenario %q (try one of %s)", name, scenarioNames())
}

func scenarioNames() string {
	s := ""
	for i, sc := range Scenarios() {
		if i > 0 {
			s += ", "
		}
		s += sc.Name
	}
	return s
}

// ReportFileName is the on-disk naming convention for a scenario report.
func ReportFileName(scenario string) string {
	return "BENCH_" + scenario + ".json"
}

// LatencySummary carries the per-task latency percentiles of a scheme,
// estimated from the telemetry latency histogram across a batch sweep.
type LatencySummary struct {
	P50Ns float64 `json:"p50_ns"`
	P90Ns float64 `json:"p90_ns"`
	P99Ns float64 `json:"p99_ns"`
}

// SchemeStats is one execution scheme's measured slice of a Report.
type SchemeStats struct {
	ThroughputPerMs float64            `json:"throughput_per_ms"`
	Latency         LatencySummary     `json:"latency"`
	Util            gpusim.Utilization `json:"utilization"`
	PeakDeviceBytes int64              `json:"peak_device_bytes"`
	Concurrency     int                `json:"concurrency"`
	TotalNs         float64            `json:"total_ns"`
	Verdict         string             `json:"verdict"`
	Bottleneck      string             `json:"bottleneck"`
}

// Report is the schema-versioned content of a BENCH_<scenario>.json file.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Scenario      string `json:"scenario"`
	Title         string `json:"title"`
	Device        string `json:"device"`
	Cores         int    `json:"cores"`
	Batch         int    `json:"batch"`

	Pipelined SchemeStats `json:"pipelined"`
	Naive     SchemeStats `json:"naive"`

	// Headline ratios (pipelined over naive) — the Figure 9 story.
	SpeedupX  float64 `json:"speedup_x"`
	BusyGainX float64 `json:"busy_gain_x"`

	// SLO summarizes the pipelined scheme against the scenario's fixed
	// objectives (absent in reports written before the block existed).
	SLO *SLOSummary `json:"slo,omitempty"`
}

// SLOObjectiveSummary is one objective's attainment in a report,
// evaluated over the scenario's batch sweep: a latency quantile bound
// or an error-rate bound.
type SLOObjectiveSummary struct {
	Name string `json:"name"`
	// Kind is sloKindLatency or sloKindErrorRate.
	Kind            string  `json:"kind"`
	TargetNs        int64   `json:"target_ns,omitempty"`
	TargetRate      float64 `json:"target_rate,omitempty"`
	Value           float64 `json:"value"`
	Met             bool    `json:"met"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

// Objective kinds as a report's JSON spells them.
const (
	sloKindLatency   = "latency"
	sloKindErrorRate = "error-rate"
)

// SLOSummary is the report's error-budget block: per-objective
// attainment plus the roll-ups Compare gates.
type SLOSummary struct {
	Objectives []SLOObjectiveSummary `json:"objectives"`
	// Attainment is the fraction of objectives met (1.0 = all).
	Attainment float64 `json:"attainment"`
	// BudgetRemaining is the minimum error budget left across the
	// objectives; negative means an objective overspent its budget.
	BudgetRemaining float64 `json:"budget_remaining"`
}

// buildSLO evaluates the scenario's objectives against the pipelined
// scheme's latency histogram. Latency budget: with a p99 objective 1% of
// tasks may exceed the target; the remaining budget is the unspent share
// of that allowance. The error-rate objective is clean by construction
// (BuildReport aborts on any task error) and records the budget it is
// held to.
func buildSLO(sc Scenario, lat telemetry.HistogramSnapshot) *SLOSummary {
	const quantile = 0.99
	allowed := 1 - quantile
	badFrac := histFracAbove(lat, float64(sc.SLOTargetP99Ns))
	p99 := lat.Quantile(quantile)
	latency := SLOObjectiveSummary{
		Name:            "task-p99",
		Kind:            sloKindLatency,
		TargetNs:        sc.SLOTargetP99Ns,
		Value:           p99,
		Met:             lat.Count == 0 || p99 <= float64(sc.SLOTargetP99Ns),
		BudgetRemaining: 1 - badFrac/allowed,
	}
	errors := SLOObjectiveSummary{
		Name:            "task-errors",
		Kind:            sloKindErrorRate,
		TargetRate:      SLOErrorBudget,
		Value:           0,
		Met:             true,
		BudgetRemaining: 1,
	}
	s := &SLOSummary{Objectives: []SLOObjectiveSummary{latency, errors}}
	met := 0
	s.BudgetRemaining = math.Inf(1)
	for _, o := range s.Objectives {
		if o.Met {
			met++
		}
		s.BudgetRemaining = math.Min(s.BudgetRemaining, o.BudgetRemaining)
	}
	s.Attainment = float64(met) / float64(len(s.Objectives))
	return s
}

// histFracAbove estimates the fraction of observations above threshold
// from a log2-bucketed histogram snapshot, linearly interpolating inside
// the straddling bucket.
func histFracAbove(h telemetry.HistogramSnapshot, threshold float64) float64 {
	if h.Count == 0 {
		return 0
	}
	var above float64
	for _, b := range h.Buckets {
		lo, hi := float64(b.Lo), float64(b.Hi)
		switch {
		case lo >= threshold:
			above += float64(b.Count)
		case hi > threshold:
			above += float64(b.Count) * (hi - threshold) / (hi - lo)
		}
	}
	return above / float64(h.Count)
}

// BuildReport runs scenario sc on a device under both schemes and
// assembles the report plus the profiler contrast backing it. Each scheme
// runs a small batch sweep (¼, ½, full) into its own telemetry sink so
// the latency percentiles reflect load sensitivity rather than a single
// point; the full-batch run feeds the profile.
func BuildReport(sc Scenario, spec gpusim.DeviceSpec, costs perfmodel.OpCosts) (*Report, *gpusim.Contrast, error) {
	stages, taskBytes, naiveThreads, err := sc.build(spec, costs)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: scenario %s: %w", sc.Name, err)
	}
	if naiveThreads > spec.Cores {
		naiveThreads = spec.Cores
	}

	runScheme := func(scheme pipeline.Scheme) (*gpusim.Report, LatencySummary, telemetry.HistogramSnapshot, error) {
		sink := telemetry.NewSink(telemetry.Config{})
		opts := gpusim.Options{Overlap: true, TaskBytes: taskBytes, Telemetry: sink}
		var last *gpusim.Report
		for _, batch := range sweepBatches(sc.Batch) {
			var rep *gpusim.Report
			var err error
			if scheme == pipeline.Pipelined {
				rep, err = gpusim.RunPipelined(spec, stages, batch, opts)
			} else {
				rep, err = gpusim.RunNaive(spec, stages, batch, naiveThreads, opts)
			}
			if err != nil {
				return nil, LatencySummary{}, telemetry.HistogramSnapshot{}, fmt.Errorf("bench: scenario %s (%s, batch %d): %w", sc.Name, scheme, batch, err)
			}
			last = rep
		}
		h := sink.Metrics.Snapshot().Histograms["gpusim/task/latency_ns"]
		lat := LatencySummary{P50Ns: h.Quantile(0.5), P90Ns: h.Quantile(0.9), P99Ns: h.Quantile(0.99)}
		return last, lat, h, nil
	}

	pipeRep, pipeLat, pipeHist, err := runScheme(pipeline.Pipelined)
	if err != nil {
		return nil, nil, err
	}
	naiveRep, naiveLat, _, err := runScheme(pipeline.Naive)
	if err != nil {
		return nil, nil, err
	}
	pp, err := gpusim.BuildProfile(pipeRep)
	if err != nil {
		return nil, nil, err
	}
	np, err := gpusim.BuildProfile(naiveRep)
	if err != nil {
		return nil, nil, err
	}
	contrast, err := gpusim.NewContrast(pp, np)
	if err != nil {
		return nil, nil, err
	}

	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		Scenario:      sc.Name,
		Title:         sc.Title,
		Device:        spec.Name,
		Cores:         spec.Cores,
		Batch:         sc.Batch,
		Pipelined:     schemeStats(pp, pipeLat),
		Naive:         schemeStats(np, naiveLat),
		SpeedupX:      contrast.ThroughputGainX,
		BusyGainX:     contrast.BusyGainX,
	}
	if sc.SLOTargetP99Ns > 0 {
		rep.SLO = buildSLO(sc, pipeHist)
	}
	return rep, contrast, nil
}

// sweepBatches yields the load points one scheme runs: quarter, half and
// full batch (deduplicated for tiny batches).
func sweepBatches(batch int) []int {
	pts := []int{batch / 4, batch / 2, batch}
	out := pts[:0]
	prev := 0
	for _, b := range pts {
		if b < 1 {
			b = 1
		}
		if b != prev {
			out = append(out, b)
			prev = b
		}
	}
	return out
}

func schemeStats(p *gpusim.Profile, lat LatencySummary) SchemeStats {
	return SchemeStats{
		ThroughputPerMs: p.ThroughputPerMs,
		Latency:         lat,
		Util:            p.Util,
		PeakDeviceBytes: p.PeakDeviceBytes,
		Concurrency:     p.Concurrency,
		TotalNs:         p.TotalNs,
		Verdict:         p.Verdict,
		Bottleneck:      p.Bottleneck,
	}
}

// WriteJSON serializes the report, indented, trailing newline included.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a BENCH_*.json stream and validates its schema.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parse report: %w", err)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return nil, fmt.Errorf("bench: report schema v%d, this build reads v%d", r.SchemaVersion, ReportSchemaVersion)
	}
	if r.Scenario == "" {
		return nil, fmt.Errorf("bench: report has no scenario name")
	}
	return &r, nil
}

// Regression is one gated metric that moved the wrong way past the
// threshold between two reports.
type Regression struct {
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// DeltaFrac is the fractional change in the harmful direction
	// (0.12 = 12% worse).
	DeltaFrac float64 `json:"delta_frac"`
}

// Compare diffs two reports of the same scenario and returns the metrics
// that regressed by more than threshold (a fraction, e.g. 0.10 for 10%).
// Gated metrics: pipelined throughput and busy fraction falling,
// pipelined p50 latency and peak device memory rising, and the headline
// speedup falling. Improvements never count against the gate.
func Compare(old, cur *Report, threshold float64) ([]Regression, error) {
	if old == nil || cur == nil {
		return nil, fmt.Errorf("bench: compare needs two reports")
	}
	if old.Scenario != cur.Scenario {
		return nil, fmt.Errorf("bench: scenario mismatch: %q vs %q", old.Scenario, cur.Scenario)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("bench: negative threshold %v", threshold)
	}
	var regs []Regression
	check := func(metric string, oldV, newV float64, higherIsBetter bool) {
		if oldV <= 0 || math.IsNaN(oldV) || math.IsNaN(newV) {
			return
		}
		var delta float64
		if higherIsBetter {
			delta = (oldV - newV) / oldV
		} else {
			delta = (newV - oldV) / oldV
		}
		if delta > threshold {
			regs = append(regs, Regression{Metric: metric, Old: oldV, New: newV, DeltaFrac: delta})
		}
	}
	check("pipelined.throughput_per_ms", old.Pipelined.ThroughputPerMs, cur.Pipelined.ThroughputPerMs, true)
	check("pipelined.utilization.busy", old.Pipelined.Util.Busy, cur.Pipelined.Util.Busy, true)
	check("pipelined.latency.p50_ns", old.Pipelined.Latency.P50Ns, cur.Pipelined.Latency.P50Ns, false)
	check("pipelined.peak_device_bytes", float64(old.Pipelined.PeakDeviceBytes), float64(cur.Pipelined.PeakDeviceBytes), false)
	check("speedup_x", old.SpeedupX, cur.SpeedupX, true)
	if old.SLO != nil && cur.SLO != nil {
		// The SLO roll-ups gate harder than the perf metrics: losing a
		// met objective or any slice of error budget is a regression
		// regardless of threshold, because the targets are fixed bounds
		// rather than drifting measurements.
		if cur.SLO.Attainment < old.SLO.Attainment {
			regs = append(regs, Regression{
				Metric:    "slo.attainment",
				Old:       old.SLO.Attainment,
				New:       cur.SLO.Attainment,
				DeltaFrac: (old.SLO.Attainment - cur.SLO.Attainment) / old.SLO.Attainment,
			})
		}
		check("slo.budget_remaining", old.SLO.BudgetRemaining, cur.SLO.BudgetRemaining, true)
	}
	return regs, nil
}
