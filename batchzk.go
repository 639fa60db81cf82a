// Package batchzk is a Go reproduction of "BatchZK: A Fully Pipelined
// GPU-Accelerated System for Batch Generation of Zero-Knowledge Proofs"
// (ASPLOS 2025).
//
// The library provides:
//
//   - an arithmetic-circuit front end (NewCircuitBuilder / RandomCircuit)
//     for the functions y = F(x, w) being proven;
//   - a complete non-interactive proof system built from the paper's three
//     cost-effective modules — linear-time encoder, Merkle tree, and
//     sum-check protocol — with Setup / Prove / Verify;
//   - the paper's primary contribution: a fully pipelined batch prover
//     (NewBatchProver) that streams proof jobs through stage-dedicated
//     workers with bounded in-flight memory, emitting proofs
//     bit-identical to the sequential prover;
//   - the verifiable machine-learning application of §5
//     (NewMLaaSService): commit to a model, answer predictions, attach
//     proofs that customers verify against the commitment;
//   - a deterministic GPU-execution simulator and the experiment harness
//     that regenerates every table and figure of the paper's evaluation
//     (RunExperiment), since real CUDA hardware is outside a pure-Go
//     reproduction (see DESIGN.md for the substitution argument).
//
// Start with examples/quickstart, then examples/zkbridge (batch
// throughput) and examples/vml (verifiable ML).
package batchzk

import (
	"io"
	"net/http"

	"batchzk/internal/bench"
	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/gpusim"
	"batchzk/internal/nn"
	"batchzk/internal/perfmodel"
	"batchzk/internal/protocol"
	"batchzk/internal/vml"
)

// Element is a field element of the 254-bit proving field (BN254 scalar).
type Element = field.Element

// NewElement returns v as a field element.
func NewElement(v uint64) Element { return field.NewElement(v) }

// RandVector returns n uniformly random field elements.
func RandVector(n int) []Element { return field.RandVector(n) }

// Circuit is a compiled arithmetic circuit.
type Circuit = circuit.Circuit

// CircuitBuilder assembles circuits from inputs, gates and constants.
type CircuitBuilder = circuit.Builder

// Wire identifies a circuit value.
type Wire = circuit.Wire

// NewCircuitBuilder returns an empty circuit builder.
func NewCircuitBuilder() *CircuitBuilder { return circuit.NewBuilder() }

// RandomCircuit synthesizes a benchmark circuit with the given
// multiplication-gate count (the paper's scale S).
func RandomCircuit(mulGates, numPublic, numSecret int, seed int64) (*Circuit, error) {
	return circuit.RandomCircuit(mulGates, numPublic, numSecret, seed)
}

// Params are the proof-system parameters derived from a circuit.
type Params = protocol.Params

// Proof is a complete non-interactive argument for one circuit execution.
type Proof = protocol.Proof

// Setup derives proof-system parameters for a circuit.
func Setup(c *Circuit) (*Params, error) { return protocol.Setup(c) }

// Prove evaluates the circuit on (public, secret) and proves the result.
func Prove(c *Circuit, p *Params, public, secret []Element) (*Proof, error) {
	return protocol.Prove(c, p, public, secret)
}

// Verify checks a proof against the circuit and public inputs. The
// circuit outputs it attests to are carried in proof.Outputs.
func Verify(c *Circuit, p *Params, public []Element, proof *Proof) error {
	return protocol.Verify(c, p, public, proof)
}

// Job is one proof request for the batch prover.
type Job = core.Job

// Result pairs a job with its proof (or error), in submission order.
type Result = core.Result

// BatchProver is the fully pipelined batch proof generator (§4 of the
// paper): jobs stream through stage-dedicated workers, each stage busy on
// a different proof, with a bounded number of proofs in flight.
type BatchProver = core.BatchProver

// NewBatchProver builds a batch prover for a circuit with the given
// pipeline depth (in-flight proof bound).
func NewBatchProver(c *Circuit, p *Params, depth int) (*BatchProver, error) {
	return core.NewBatchProver(c, p, depth)
}

// ProverStats is a point-in-time snapshot of a batch prover's counters,
// including its failure accounting (failed jobs, deadline timeouts,
// recovered stage panics).
type ProverStats = core.Stats

// ShardedProver splits one batch across S independent prover shards,
// scattering jobs round-robin and merging results deterministically in
// global submission order.
type ShardedProver = core.ShardedProver

// NewShardedProver builds shards independent batch provers over one
// circuit, each with its own in-flight budget of depth proofs.
func NewShardedProver(c *Circuit, p *Params, shards, depth int) (*ShardedProver, error) {
	return core.NewShardedProver(c, p, shards, depth)
}

// Memory-bounded streaming. Peak host heap tracks the in-flight window
// instead of the batch size (the host-side analogue of the paper's
// ~2N-block device budget) on two counts:
//
//   - The commitment is always out-of-core: rows are encoded a block at a
//     time into per-column incremental hashes, and the opening re-encodes
//     only the challenged columns, so no proof ever holds the RateInv×
//     encoded matrix. SetStreamingCommit, which used to select this path,
//     is a no-op.
//   - ProveStream(next, emit) replaces slice-in/slice-out batching:
//     jobs are pulled from next only as pipeline slots free up, and
//     each proof is handed to emit the moment it finalizes.
//
// See DESIGN.md §9 for the memory model.

// Network is a fixed-point neural network (the §5 ML engine).
type Network = nn.Network

// Tensor is a fixed-point activation/image tensor.
type Tensor = nn.Tensor

// VGG16 builds the paper's VGG-16 architecture (32×32×3 inputs, 10
// classes) with deterministic synthetic weights.
func VGG16(seed int64) *Network { return nn.VGG16(seed) }

// TinyCNN builds a small CNN whose inference is proven end to end.
func TinyCNN(seed int64) *Network { return nn.TinyCNN(seed) }

// RandImage generates a deterministic synthetic input image.
func RandImage(c, h, w int, seed int64) *Tensor { return nn.RandImage(c, h, w, seed) }

// MLaaSService is the verifiable machine-learning service of §5: it
// commits to a model, answers predictions, and attaches proofs.
type MLaaSService = vml.Service

// MLaaSClient verifies predictions against the model commitment.
type MLaaSClient = vml.Client

// Prediction is a proven prediction.
type Prediction = vml.Prediction

// NewMLaaSService commits to the network and prepares the batch prover.
// The service's Handler method serves the HTTP interface of the paper's
// Figure 8 (GET /commitment, POST /predict).
func NewMLaaSService(net *Network, depth int) (*MLaaSService, error) {
	return vml.NewService(net, depth)
}

// MLaaSRemoteClient queries an MLaaS server over HTTP and verifies every
// prediction locally against the model commitment.
type MLaaSRemoteClient = vml.RemoteClient

// NewMLaaSRemoteClient connects to an MLaaS server, cross-checking its
// published commitment against the trusted verifier material.
func NewMLaaSRemoteClient(baseURL string, verifier *MLaaSClient, hc *http.Client) (*MLaaSRemoteClient, error) {
	return vml.NewRemoteClient(baseURL, verifier, hc)
}

// DeviceSpec describes a simulated GPU (or CPU) profile.
type DeviceSpec = gpusim.DeviceSpec

// Device returns a hardware profile by name: "GH200", "H100", "A100",
// "V100", "3090Ti", "c5a.8xlarge", or "Grace".
func Device(name string) (DeviceSpec, error) { return perfmodel.DeviceByName(name) }

// SystemReport is a simulated batch-proving performance report.
type SystemReport = core.SystemReport

// SimulateSystem models batch proof generation at circuit scale S on a
// device profile, returning throughput, latency, memory, and the
// per-module breakdown.
func SimulateSystem(spec DeviceSpec, scale, batch int) (*SystemReport, error) {
	return core.SimulateSystem(spec, perfmodel.GPUCosts(), scale, batch, true)
}

// ShardedSystemReport summarizes a sharded simulation: one batch split
// across S simulated devices with per-device memory budgets.
type ShardedSystemReport = core.ShardedSystemReport

// SimulateSystemSharded models batch proof generation at circuit scale S
// with the batch split across shards simulated devices; a positive
// deviceMemBytes overrides each device's memory budget.
func SimulateSystemSharded(spec DeviceSpec, scale, batch, shards int, deviceMemBytes int64) (*ShardedSystemReport, error) {
	return core.SimulateSystemSharded(spec, perfmodel.GPUCosts(), scale, batch, shards, true, deviceMemBytes)
}

// ExperimentTable is one regenerated table/figure of the paper.
type ExperimentTable = bench.Table

// Experiments lists the reproducible experiment ids (table3 … fig9).
func Experiments() []string { return bench.Experiments() }

// RunExperiment regenerates one table or figure of the paper's evaluation
// on the given device profile.
func RunExperiment(id string, spec DeviceSpec) (*ExperimentTable, error) {
	return bench.Run(id, spec)
}

// RunAllExperiments regenerates every table and figure, writing the
// rendered results to w.
func RunAllExperiments(spec DeviceSpec, w io.Writer) error {
	tables, err := bench.All(spec)
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Render(w)
	}
	return nil
}

// SimReport is the raw result of one simulated run (either scheme).
type SimReport = gpusim.Report

// RunProfile is the profiler's attribution of one simulated run: where
// lane-time went (compute, memory stalls, launch overhead, starvation,
// idle), per-stage verdicts, and the run-level bottleneck diagnosis.
type RunProfile = gpusim.Profile

// RunContrast pairs a pipelined and a naive profile of the same workload
// — the paper's Figure 9 comparison as a data structure.
type RunContrast = gpusim.Contrast

// ProfileRun post-processes a simulated run into a RunProfile.
func ProfileRun(rep *SimReport) (*RunProfile, error) { return gpusim.BuildProfile(rep) }

// ContrastRuns builds the pipelined-vs-naive contrast from two profiles.
func ContrastRuns(pipelined, naive *RunProfile) (*RunContrast, error) {
	return gpusim.NewContrast(pipelined, naive)
}

// BenchScenario is a named, reproducible bench-report workload.
type BenchScenario = bench.Scenario

// BenchReport is the schema-versioned content of a BENCH_<scenario>.json
// file: throughput, latency percentiles, utilization breakdown and peak
// device memory for both schemes.
type BenchReport = bench.Report

// BenchRegression is one gated metric that moved the wrong way between
// two bench reports.
type BenchRegression = bench.Regression

// BenchScenarios lists the report scenarios in presentation order.
func BenchScenarios() []BenchScenario { return bench.Scenarios() }

// BenchScenarioByName resolves a scenario from the registry.
func BenchScenarioByName(name string) (BenchScenario, error) { return bench.ScenarioByName(name) }

// BuildBenchReport runs a scenario on a device under both schemes and
// returns the report plus the profiler contrast backing it.
func BuildBenchReport(sc BenchScenario, spec DeviceSpec) (*BenchReport, *RunContrast, error) {
	return bench.BuildReport(sc, spec, perfmodel.GPUCosts())
}

// ReadBenchReport parses and schema-checks a BENCH_*.json stream.
func ReadBenchReport(r io.Reader) (*BenchReport, error) { return bench.ReadReport(r) }

// CompareBenchReports diffs two reports of the same scenario, returning
// the metrics that regressed past threshold (a fraction, e.g. 0.10).
func CompareBenchReports(old, cur *BenchReport, threshold float64) ([]BenchRegression, error) {
	return bench.Compare(old, cur, threshold)
}

// BenchReportFileName is the BENCH_<scenario>.json naming convention.
func BenchReportFileName(scenario string) string { return bench.ReportFileName(scenario) }

// RooflineReport is the host-kernel roofline: measured serial ns/element
// for every hot kernel against a calibrated arithmetic floor (measured
// Montgomery-multiply / add / hash-compress latencies times each
// kernel's per-element op model), with a percent-of-ceiling verdict per
// kernel mirroring the GPU simulator's bound verdicts.
type RooflineReport = bench.RooflineReport

// BuildRooflineReport calibrates the host ALU, times every kernel at
// 2^shift elements serially (best of reps), and scores each against its
// arithmetic floor.
func BuildRooflineReport(shift, reps int, seed int64) (*RooflineReport, error) {
	return bench.BuildRooflineReport(shift, reps, seed)
}
