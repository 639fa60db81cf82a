// Package baselines models the comparator systems of the paper's Table 2:
//
//	Merkle tree:  Orion (CPU, C++),   Simon (GPU, OpenCL)
//	Sum-check:    Arkworks (CPU, Rust), Icicle (GPU, CUDA)
//	Encoder:      Orion (CPU),        Ours-np (GPU, non-pipelined)
//	Full ZKPs:    Libsnark (CPU) and Bellperson (GPU) — Groth16-family,
//	              dominated by MSM and NTT; Orion&Arkworks (CPU) — the
//	              same modules as ours.
//
// GPU baselines are the *naive* (one-kernel-per-task) schedules of
// internal/pipeline run on the same simulator as our system. CPU baselines
// run the same work counts single-threaded (the published Orion, Arkworks
// and Libsnark provers are single-threaded) on the c5a.8xlarge profile
// the paper uses.
//
// Three constants are fitted to single cells of the paper's tables and
// then *extrapolated* across every other scale and device — the honest
// test of the model is how well the untuned cells match (EXPERIMENTS.md):
//
//	libsnarkPointOpCycles   — fitted to Table 7's Libsnark MSM at S=2^18
//	libsnarkButterflyCycles — fitted to Table 7's Libsnark NTT at S=2^18
//	arkworksPairCycles      — fitted to Table 4's Arkworks row at 2^18
//	bellpersonBaseEff       — fitted to Table 7's Bellperson proof at 2^18
package baselines

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"batchzk/internal/core"
	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/gpusim"
	"batchzk/internal/perfmodel"
	"batchzk/internal/pipeline"
)

// Fitted implementation constants (see the package comment).
const (
	// libsnark uses generic no-asm Fp arithmetic: one Jacobian point
	// operation ≈ 1300 cycles on a c5a core.
	libsnarkPointOpCycles = 1300
	// libsnark's radix-2 FFT with allocation churn: one butterfly ≈ 400
	// cycles.
	libsnarkButterflyCycles = 400
	// Arkworks' generic-field multilinear sum-check spends ≈1900 cycles
	// per table pair (trait dispatch + allocation).
	arkworksPairCycles = 1900
	// Bellperson's OpenCL kernels reach ≈0.6% of device peak at S=2^18;
	// occupancy improves with input size as √S (the GZKP observation).
	bellpersonBaseEff = 0.006
)

// cpuSingleThread runs stages on one core of the c5a.8xlarge profile.
func cpuSingleThread(stages []gpusim.Stage, batch int, taskBytes int64) (*gpusim.Report, error) {
	spec := perfmodel.CPUc5a()
	return gpusim.RunNaive(spec, stages, batch, 1, gpusim.Options{
		Threads:   1,
		TaskBytes: taskBytes,
	})
}

// OrionMerkleCPU models Orion's single-threaded CPU Merkle generation
// (Table 3, first column).
func OrionMerkleCPU(numBlocks, batch int) (*gpusim.Report, error) {
	stages, err := pipeline.MerkleStages(numBlocks, perfmodel.CPUCosts())
	if err != nil {
		return nil, err
	}
	for i := range stages {
		stages[i].HostBytesIn, stages[i].HostBytesOut = 0, 0 // no device link
	}
	return cpuSingleThread(stages, batch, int64(numBlocks)*perfmodel.HashBlockBytes)
}

// ArkworksSumcheckCPU models the Arkworks multilinear sum-check prover
// (Table 4, first column).
func ArkworksSumcheckCPU(nVars, batch int) (*gpusim.Report, error) {
	if nVars < 1 {
		return nil, fmt.Errorf("baselines: need at least one variable")
	}
	var stages []gpusim.Stage
	for i := 0; i < nVars; i++ {
		half := 1 << (nVars - i - 1)
		stages = append(stages, gpusim.Stage{
			Name:        "sumcheck/round",
			WorkOps:     float64(half),
			CyclesPerOp: arkworksPairCycles,
			MemBytes:    float64(3*half) * perfmodel.FieldBytes,
		})
	}
	return cpuSingleThread(stages, batch, int64(1<<nVars)*perfmodel.FieldBytes)
}

// OrionEncoderCPU models Orion's single-threaded CPU linear-time encoder
// (Table 5, first column) from the analytic work profile.
func OrionEncoderCPU(msgLen, batch int) (*gpusim.Report, error) {
	work, err := encoder.WorkModel(msgLen, encoder.DefaultParams())
	if err != nil {
		return nil, err
	}
	stages := pipeline.EncoderStagesFromWork(work, msgLen, perfmodel.CPUCosts(), false)
	for i := range stages {
		stages[i].HostBytesIn, stages[i].HostBytesOut = 0, 0
		stages[i].WarpImbalance = 1 // no SIMD warps on a CPU core
	}
	return cpuSingleThread(stages, batch, pipeline.EncoderTaskBytesForLen(msgLen, len(work)))
}

// SimonMerkleGPU models Simon's one-kernel-per-tree GPU scheme
// (Table 3, second column).
func SimonMerkleGPU(spec gpusim.DeviceSpec, numBlocks, batch int) (*gpusim.Report, error) {
	return pipeline.SimulateMerkle(spec, perfmodel.GPUCosts(), numBlocks, batch, pipeline.Naive, false)
}

// IcicleSumcheckGPU models Icicle's one-kernel-per-proof GPU scheme
// (Table 4, second column).
func IcicleSumcheckGPU(spec gpusim.DeviceSpec, nVars, batch int) (*gpusim.Report, error) {
	return pipeline.SimulateSumcheck(spec, perfmodel.GPUCosts(), nVars, batch, pipeline.Naive, false)
}

// NonPipelinedEncoderGPU models "Ours-np": our encoder kernels without
// the pipeline (Table 5, second column).
func NonPipelinedEncoderGPU(spec gpusim.DeviceSpec, msgLen, batch int) (*gpusim.Report, error) {
	work, err := encoder.WorkModel(msgLen, encoder.DefaultParams())
	if err != nil {
		return nil, err
	}
	return pipeline.SimulateEncoderFromWork(spec, perfmodel.GPUCosts(), work, msgLen, batch, pipeline.Naive, false, true)
}

// grothWork returns the per-proof MSM and NTT work of a Groth16-style
// prover at scale S: three G1 multi-scalar multiplications over ≈2S
// points, one G2 MSM over S points (≈3× the per-point cost), and seven
// (i)NTTs over the 2S evaluation domain for the quotient polynomial.
func grothWork(S int) (pointOps, butterflies float64) {
	pointOps = 3*float64(workPointOps(2*S)) + 3*float64(workPointOps(S))
	butterflies = 7 * float64(workButterflies(2*S))
	return pointOps, butterflies
}

// The Groth16 work counts below are closed-form: the baselines charge
// Pippenger MSM point operations and radix-2 NTT butterflies without
// executing either algorithm.

const (
	// bucketAddMuls is the amortized mul-equivalent cost of one
	// batch-affine bucket addition: 2M + 1S for the chord plus ~3M as the
	// addition's share of the round's shared inversion.
	bucketAddMuls = 6
	// sweepBucketMuls is the mul-equivalent cost the running-sum sweep
	// pays per bucket: one mixed add (7M + 4S) into the running point plus
	// one full Jacobian add (11M + 5S) into the window sum.
	sweepBucketMuls = 27
)

// windowBits picks the Pippenger window size c for n points by minimizing
// the batch-affine mul-equivalent cost ⌈Bits/c⌉·(6n + 27·2^c) over
// c ∈ [2, 16] — each of the ⌈Bits/c⌉ windows pays ~6 muls per amortized
// affine bucket addition and ~27 muls per bucket in the Jacobian
// running-sum sweep. Ties break toward the smaller window (fewer buckets,
// less memory).
func windowBits(n int) int {
	if n <= 1 {
		return 2
	}
	best, bestCost := 2, -1
	for c := 2; c <= 16; c++ {
		numWindows := (field.Bits + c - 1) / c
		cost := numWindows * (bucketAddMuls*n + sweepBucketMuls*(1<<uint(c)))
		if bestCost < 0 || cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

// workPointOps estimates the group-operation count of a Pippenger MSM over
// n points — the quantity the Bellperson/Libsnark performance models
// charge. Each window processes n bucket additions plus ~2^{c+1} sweep
// additions, and there are ⌈254/c⌉ windows (plus 254 doublings).
func workPointOps(n int) int {
	b, s, d := workBreakdown(n)
	return b + s + d
}

// workBreakdown splits the Pippenger operation count into three cost
// classes: affine bucket additions, running-sum sweep additions over the
// 2^{c+1} per-window bucket visits, and the per-window doublings.
func workBreakdown(n int) (bucketAdds, sweepAdds, doublings int) {
	if n <= 0 {
		return 0, 0, 0
	}
	c := windowBits(n)
	numWindows := (field.Bits + c - 1) / c
	return numWindows * n, numWindows * (2 << uint(c)), field.Bits
}

// workButterflies returns the butterfly count of one size-n transform
// (n/2·log₂n), the unit the Libsnark/Bellperson cost models charge.
func workButterflies(n int) int {
	if n <= 1 {
		return 0
	}
	return n / 2 * bits.Len(uint(n-1))
}

// GrothReport is the Table 7 row shape for the Groth16-family systems.
type GrothReport struct {
	MSMNs   float64
	NTTNs   float64
	ProofNs float64
	// PeakDeviceBytes reports the per-proof working set (Table 10).
	PeakDeviceBytes int64
}

// BellpersonMemBytes estimates the per-proof device working set of the
// Groth16 GPU prover: the proving key's curve points plus the NTT buffers
// and witness vectors — all resident for the whole proof (no dynamic
// loading).
func BellpersonMemBytes(S int) int64 {
	pkPoints := int64(8*S) * 96 // affine G1/G2 key material
	nttBuffers := int64(7*2*S) * perfmodel.FieldBytes
	witness := int64(2*S) * perfmodel.FieldBytes
	return pkPoints + nttBuffers + witness
}

// Libsnark models the single-threaded CPU Groth16 prover (Table 7).
func Libsnark(S, batch int) (*GrothReport, error) {
	if S < 2 {
		return nil, fmt.Errorf("baselines: scale %d too small", S)
	}
	pointOps, butterflies := grothWork(S)
	spec := perfmodel.CPUc5a()
	cyclesPerNs := spec.ClockGHz // one core
	msmNs := pointOps * libsnarkPointOpCycles / cyclesPerNs
	nttNs := butterflies * libsnarkButterflyCycles / cyclesPerNs
	return &GrothReport{
		MSMNs:           msmNs,
		NTTNs:           nttNs,
		ProofNs:         msmNs + nttNs,
		PeakDeviceBytes: BellpersonMemBytes(S), // same working set, in host RAM
	}, nil
}

// Bellperson models the GPU Groth16 prover (Table 7, Table 8): the same
// work at a device-peak efficiency that starts at bellpersonBaseEff and
// grows with √S as occupancy improves.
func Bellperson(spec gpusim.DeviceSpec, S, batch int) (*GrothReport, error) {
	if S < 2 {
		return nil, fmt.Errorf("baselines: scale %d too small", S)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pointOps, butterflies := grothWork(S)
	costs := perfmodel.GPUCosts()
	eff := bellpersonBaseEff * math.Sqrt(float64(S)/float64(1<<18))
	if eff > 1 {
		eff = 1
	}
	peakCyclesPerNs := float64(spec.Cores) * spec.ClockGHz
	msmNs := pointOps * costs.PointOpCycles / (peakCyclesPerNs * eff)
	nttNs := butterflies * costs.ButterflyCycles / (peakCyclesPerNs * eff)
	// Host transfers of witness and proving key serialize with compute
	// (bellperson does not overlap streams).
	transferNs := float64(BellpersonMemBytes(S)) / spec.LinkGBs
	return &GrothReport{
		MSMNs:           msmNs,
		NTTNs:           nttNs,
		ProofNs:         msmNs + nttNs + transferNs,
		PeakDeviceBytes: BellpersonMemBytes(S),
	}, nil
}

// ModulesReport is the Table 7 row shape for the module-based systems.
type ModulesReport struct {
	MerkleNs   float64
	SumcheckNs float64
	EncoderNs  float64
	ProofNs    float64
}

// OrionArkworks models the CPU system with our modules (Table 7): Orion's
// encoder+Merkle and Arkworks' sum-check executing our system's exact
// work counts single-threaded. Sum-check pairs use the Arkworks
// per-pair cost scaled by the round-polynomial degree.
func OrionArkworks(S int) (*ModulesReport, error) {
	shape, err := core.ShapeForScale(S)
	if err != nil {
		return nil, err
	}
	stages, err := core.SystemStages(shape, perfmodel.CPUCosts(), encoder.DefaultParams())
	if err != nil {
		return nil, err
	}
	spec := perfmodel.CPUc5a()
	cyclesPerNs := spec.ClockGHz
	out := &ModulesReport{}
	for i := range stages {
		st := &stages[i]
		fam := strings.SplitN(st.Name, "/", 2)[0]
		cycles := st.WorkOps * st.CyclesPerOp
		if fam == "sumcheck" {
			// Arkworks' sum-check machinery: its measured per-pair cost,
			// scaled from the plain (degree-1) protocol to our degree-3
			// gate rounds and degree-2 linear rounds.
			switch {
			case strings.Contains(st.Name, "gate-round"):
				cycles = st.WorkOps * arkworksPairCycles * 3
			case strings.Contains(st.Name, "linear-round"):
				cycles = st.WorkOps * arkworksPairCycles * 2
			}
		}
		ns := cycles / cyclesPerNs
		switch fam {
		case "merkle":
			out.MerkleNs += ns
		case "sumcheck":
			out.SumcheckNs += ns
		case "encoder":
			out.EncoderNs += ns
		}
	}
	out.ProofNs = out.MerkleNs + out.SumcheckNs + out.EncoderNs
	return out, nil
}
