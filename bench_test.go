package batchzk

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark regenerates its experiment through the calibrated
// performance model and reports the headline metric of that table as a
// custom benchmark metric, so `go test -bench=.` reproduces the whole
// evaluation section.

import (
	"testing"

	"batchzk/internal/baselines"
	"batchzk/internal/bench"
	"batchzk/internal/core"
	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/nn"
	"batchzk/internal/perfmodel"
	"batchzk/internal/pipeline"
	"batchzk/internal/vml"
)

func benchExperiment(b *testing.B, id string) *bench.Table {
	b.Helper()
	spec := perfmodel.GH200()
	var table *bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = bench.Run(id, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	return table
}

// BenchmarkTable3MerkleThroughput regenerates Table 3 and reports the
// pipelined Merkle throughput at 2^18 blocks (trees/ms).
func BenchmarkTable3MerkleThroughput(b *testing.B) {
	benchExperiment(b, "table3")
	rep, err := pipeline.SimulateMerkle(perfmodel.GH200(), perfmodel.GPUCosts(), 1<<18, 1024, pipeline.Pipelined, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.ThroughputPerMs(), "trees/ms@2^18")
}

// BenchmarkTable4SumcheckThroughput regenerates Table 4 and reports the
// pipelined sum-check throughput at 2^18 (proofs/ms).
func BenchmarkTable4SumcheckThroughput(b *testing.B) {
	benchExperiment(b, "table4")
	rep, err := pipeline.SimulateSumcheck(perfmodel.GH200(), perfmodel.GPUCosts(), 18, 1024, pipeline.Pipelined, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.ThroughputPerMs(), "proofs/ms@2^18")
}

// BenchmarkTable5EncoderThroughput regenerates Table 5 and reports the
// pipelined encoder throughput at 2^18 (codes/ms).
func BenchmarkTable5EncoderThroughput(b *testing.B) {
	benchExperiment(b, "table5")
	work, err := encoder.WorkModel(1<<18, encoder.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := pipeline.SimulateEncoderFromWork(perfmodel.GH200(), perfmodel.GPUCosts(), work, 1<<18, 1024, pipeline.Pipelined, true, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.ThroughputPerMs(), "codes/ms@2^18")
}

// BenchmarkTable6ModuleLatency regenerates Table 6 and reports the
// pipelined Merkle latency at 2^18 (ms).
func BenchmarkTable6ModuleLatency(b *testing.B) {
	benchExperiment(b, "table6")
	rep, err := pipeline.SimulateMerkle(perfmodel.GH200(), perfmodel.GPUCosts(), 1<<18, 8, pipeline.Pipelined, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.LatencyNs/1e6, "latency-ms@2^18")
}

// BenchmarkTable7SystemThroughput regenerates Table 7 and reports our
// amortized per-proof time at S = 2^20 (ms).
func BenchmarkTable7SystemThroughput(b *testing.B) {
	benchExperiment(b, "table7")
	rep, err := core.SimulateSystem(perfmodel.GH200(), perfmodel.GPUCosts(), 1<<20, 256, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.CycleNs/1e6, "ms/proof@2^20")
}

// BenchmarkTable8AcrossGPUs regenerates Table 8 and reports the V100
// throughput speedup over Bellperson (the paper's headline 259.5×).
func BenchmarkTable8AcrossGPUs(b *testing.B) {
	benchExperiment(b, "table8")
	spec := perfmodel.V100()
	bell, err := baselines.Bellperson(spec, 1<<20, 1)
	if err != nil {
		b.Fatal(err)
	}
	ours, err := core.SimulateSystem(spec, perfmodel.GPUCosts(), 1<<20, 256, true)
	if err != nil {
		b.Fatal(err)
	}
	oursPerSec := ours.ThroughputPerMs() * 1000
	bellPerSec := 1e9 / bell.ProofNs
	b.ReportMetric(oursPerSec/bellPerSec, "speedup-x@V100")
}

// BenchmarkTable9Overlap regenerates Table 9 and reports the overlapped
// cycle on the V100 (ms).
func BenchmarkTable9Overlap(b *testing.B) {
	benchExperiment(b, "table9")
	rep, err := core.SimulateSystem(perfmodel.V100(), perfmodel.GPUCosts(), 1<<20, 256, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.CycleNs/1e6, "cycle-ms@V100")
}

// BenchmarkTable10Memory regenerates Table 10 and reports our per-proof
// device footprint at S = 2^18 (GB).
func BenchmarkTable10Memory(b *testing.B) {
	benchExperiment(b, "table10")
	shape, err := core.ShapeForScale(1 << 18)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(core.SystemTaskBytes(shape))/(1<<30), "GB@2^18")
}

// BenchmarkTable11VerifiableML regenerates Table 11 and reports the
// modelled VGG-16 proof throughput (the paper's 9.52 proofs/s headline).
func BenchmarkTable11VerifiableML(b *testing.B) {
	benchExperiment(b, "table11")
	rep, err := vml.SimulatePerformance(perfmodel.GH200(), nn.VGG16(1), 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.ThroughputPerSec, "proofs/s-VGG16")
}

// BenchmarkFig4ThreadWorkload regenerates Figure 4's workload traces.
func BenchmarkFig4ThreadWorkload(b *testing.B) {
	benchExperiment(b, "fig4")
}

// BenchmarkFig6EncoderPipelines regenerates Figure 6's two-pipeline
// schedule table.
func BenchmarkFig6EncoderPipelines(b *testing.B) {
	benchExperiment(b, "fig6")
}

// BenchmarkFig9Utilization regenerates Figure 9's utilization traces and
// reports the pipelined Merkle module's mean utilization.
func BenchmarkFig9Utilization(b *testing.B) {
	table := benchExperiment(b, "fig9")
	_ = table
	rep, err := pipeline.SimulateMerkle(perfmodel.RTX3090Ti(), perfmodel.GPUCosts(), 1<<18, 256, pipeline.Pipelined, true)
	if err != nil {
		b.Fatal(err)
	}
	sum := 0.0
	for _, s := range rep.Trace {
		sum += s.Util
	}
	b.ReportMetric(100*sum/float64(len(rep.Trace)), "mean-util-%")
}

// BenchmarkBatchProverEndToEnd measures the *real* (executed, not
// modelled) pipelined batch prover on a 256-gate circuit. Beyond the
// wall-clock numbers it reports telemetry-derived metrics: the p99 of
// the slowest stage's latency histogram and the peak number of proofs
// in flight, taken from a per-benchmark sink.
func BenchmarkBatchProverEndToEnd(b *testing.B) {
	c, err := RandomCircuit(256, 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := Setup(c)
	if err != nil {
		b.Fatal(err)
	}
	prover, err := NewBatchProver(c, p, 4)
	if err != nil {
		b.Fatal(err)
	}
	sink := NewTelemetrySink(TelemetryConfig{})
	prover.SetTelemetry(sink)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{ID: i, Public: field.RandVector(2), Secret: field.RandVector(2)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := prover.ProveBatch(jobs)
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs)), "proofs/op")

	snap := sink.Metrics.Snapshot()
	p99 := 0.0
	for _, name := range core.StageNames {
		if h, ok := snap.Histograms["core/stage/"+name+"/ns"]; ok && h.P99 > p99 {
			p99 = h.P99
		}
	}
	b.ReportMetric(p99, "stage-p99-ns")
	b.ReportMetric(float64(snap.Gauges["core/jobs/in_flight"].Peak), "peak-in-flight")
}
