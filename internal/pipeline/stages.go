// Package pipeline is the performance model of §3 of the BatchZK paper:
// the pipelined GPU modules for Merkle trees, sum-check proofs and
// linear-time codes. It feeds each module's real work counts (hash
// compressions per layer, multiply-adds per sparse-matrix level, bytes
// touched per round) into the gpusim engine, yielding the
// throughput/latency/utilization/memory numbers of Tables 3–6, 9, 10 and
// Figure 9. The modules themselves run on the host as the one-shot
// functions of internal/merkle, internal/sumcheck and internal/encoder.
package pipeline

import (
	"fmt"
	"sort"

	"batchzk/internal/encoder"
	"batchzk/internal/gpusim"
	"batchzk/internal/perfmodel"
)

// MerkleStages describes the per-layer work of one Merkle tree over
// numBlocks 512-bit blocks: stage 0 hashes the blocks into leaves
// (loading them from host memory — the dynamic loading of §3.1), stage
// ℓ ≥ 1 combines pairs; intermediate layers are stored back to host.
func MerkleStages(numBlocks int, costs perfmodel.OpCosts) ([]gpusim.Stage, error) {
	if numBlocks <= 0 || numBlocks&(numBlocks-1) != 0 {
		return nil, fmt.Errorf("pipeline: %d blocks is not a positive power of two", numBlocks)
	}
	var stages []gpusim.Stage
	stages = append(stages, gpusim.Stage{
		Name:        "merkle/leaves",
		WorkOps:     float64(numBlocks),
		CyclesPerOp: costs.HashCycles,
		MemBytes:    float64(numBlocks) * (perfmodel.HashBlockBytes + perfmodel.HashDigestBytes),
		HostBytesIn: float64(numBlocks) * perfmodel.HashBlockBytes,
	})
	for sz := numBlocks / 2; sz >= 1; sz /= 2 {
		stages = append(stages, gpusim.Stage{
			Name:         "merkle/layer",
			WorkOps:      float64(sz),
			CyclesPerOp:  costs.HashCycles,
			MemBytes:     float64(sz) * 3 * perfmodel.HashDigestBytes,
			HostBytesOut: float64(sz) * perfmodel.HashDigestBytes, // dynamic storing
		})
	}
	return stages, nil
}

// MerkleTaskBytes is the device-memory footprint of one tree flowing
// through the pipeline: the paper's 2N ≈ N + N/2 + … + 1 blocks.
func MerkleTaskBytes(numBlocks int) int64 {
	bytes := int64(numBlocks) * perfmodel.HashBlockBytes
	for sz := numBlocks; sz >= 1; sz /= 2 {
		bytes += int64(sz) * perfmodel.HashDigestBytes
	}
	return bytes
}

// SumcheckStages describes the per-round work of one sum-check proof over
// a 2^nVars table (Algorithm 1): round i reads the 2^{n-i} live entries,
// accumulates the two half sums, and writes the 2^{n-i-1} folded entries.
// The module is memory-bound (§3.2), so MemBytes carries the traffic.
func SumcheckStages(nVars int, costs perfmodel.OpCosts) ([]gpusim.Stage, error) {
	if nVars < 1 {
		return nil, fmt.Errorf("pipeline: need at least one variable")
	}
	var stages []gpusim.Stage
	for i := 0; i < nVars; i++ {
		in := 1 << (nVars - i)
		half := in / 2
		st := gpusim.Stage{
			Name:    "sumcheck/round",
			WorkOps: float64(half),
			// Per pair: one lerp (1 mul + 2 add) + two sum accumulations.
			CyclesPerOp: costs.FieldMulCycles + 4*costs.FieldAddCycles,
			// Traffic: read the full table, write the folded half, and a
			// second pass over the entries for the tree-based partial-sum
			// reduction of §3.2 — the module is memory-bound, as the
			// paper observes.
			MemBytes: float64(in+half) * perfmodel.FieldBytes * 2,
		}
		if i == 0 {
			st.HostBytesIn = float64(in) * perfmodel.FieldBytes // dynamic loading
		}
		stages = append(stages, st)
	}
	return stages, nil
}

// SumcheckTaskBytes is the in-flight footprint of one proof: the double
// buffers of Figure 5 hold two copies of each inter-stage table.
func SumcheckTaskBytes(nVars int) int64 {
	var bytes int64
	for i := 0; i <= nVars; i++ {
		bytes += 2 * int64(1<<(nVars-i)) * perfmodel.FieldBytes
	}
	return bytes
}

// WarpImbalance computes the SIMD waste factor of assigning sparse-matrix
// rows to 32-thread warps (§3.3): a warp's duration is its longest row, so
// the factor is Σ_warps 32·max(rows in warp) / Σ all row lengths.
// With sorted=true, rows are first bucket-sorted by their one-byte length
// (the paper's scheme); otherwise they are taken in natural order.
func WarpImbalance(lens []byte, sorted bool) float64 {
	if len(lens) == 0 {
		return 1
	}
	work := 0
	for _, l := range lens {
		work += int(l)
	}
	if work == 0 {
		return 1
	}
	rows := lens
	if sorted {
		rows = append([]byte(nil), lens...)
		// Bucket sort: 256 buckets, the optimal sort for byte-sized keys.
		var buckets [256]int
		for _, l := range rows {
			buckets[l]++
		}
		idx := 0
		for v := 0; v < 256; v++ {
			for c := 0; c < buckets[v]; c++ {
				rows[idx] = byte(v)
				idx++
			}
		}
	}
	cost := 0
	for i := 0; i < len(rows); i += gpusim.WarpSize {
		end := i + gpusim.WarpSize
		if end > len(rows) {
			end = len(rows)
		}
		maxLen := 0
		for _, l := range rows[i:end] {
			if int(l) > maxLen {
				maxLen = int(l)
			}
		}
		cost += gpusim.WarpSize * maxLen
	}
	return float64(cost) / float64(work)
}

// EncoderStages describes the two-pipeline encoding of Figure 6: forward
// first-matrix multiplications (large → small), the base repetition code,
// then backward second-matrix multiplications (small → large). Work
// counts and row-length distributions come from the actual sampled
// expander matrices; sortRows selects the bucket-sorted warp assignment.
func EncoderStages(enc *encoder.Encoder, costs perfmodel.OpCosts, sortRows bool) []gpusim.Stage {
	var stages []gpusim.Stage
	madCycles := costs.FieldMulCycles + costs.FieldAddCycles
	for k, s := range enc.Stages() {
		st := gpusim.Stage{
			Name:        "encoder/forward",
			WorkOps:     float64(s.First.NumNonZeros()),
			CyclesPerOp: madCycles,
			ParallelOps: float64(s.First.OutDim),
			// Per non-zero: a coalesced coefficient read plus a scattered
			// gather of the input element (partially cached): ≈1.5 field
			// elements of effective traffic.
			MemBytes:      float64(s.First.NumNonZeros()) * 48,
			WarpImbalance: WarpImbalance(s.First.RowLengths(), sortRows),
		}
		if k == 0 {
			st.HostBytesIn = float64(enc.MessageLen()) * perfmodel.FieldBytes
		}
		stages = append(stages, st)
	}
	// Base repetition code: a copy of RateInv × base elements.
	baseLen := enc.MessageLen() >> uint(enc.NumStages())
	stages = append(stages, gpusim.Stage{
		Name:        "encoder/base",
		WorkOps:     float64(encoder.RateInv * baseLen),
		CyclesPerOp: costs.FieldAddCycles,
		MemBytes:    float64(encoder.RateInv*baseLen) * 2 * perfmodel.FieldBytes,
	})
	for k := enc.NumStages() - 1; k >= 0; k-- {
		s := enc.Stages()[k]
		st := gpusim.Stage{
			Name:          "encoder/backward",
			WorkOps:       float64(s.Second.NumNonZeros()),
			CyclesPerOp:   madCycles,
			ParallelOps:   float64(s.Second.OutDim),
			MemBytes:      float64(s.Second.NumNonZeros()) * 48,
			WarpImbalance: WarpImbalance(s.Second.RowLengths(), sortRows),
		}
		if k == 0 {
			st.HostBytesOut = float64(enc.CodewordLen()) * perfmodel.FieldBytes
		}
		stages = append(stages, st)
	}
	return stages
}

// EncoderStagesFromWork builds encoder stages from an analytic work
// profile (encoder.WorkModel) instead of materialized matrices — the form
// the table-scale benchmarks (N up to 2^22) use.
func EncoderStagesFromWork(work []encoder.StageWork, msgLen int, costs perfmodel.OpCosts, sortRows bool) []gpusim.Stage {
	var stages []gpusim.Stage
	madCycles := costs.FieldMulCycles + costs.FieldAddCycles
	for k, sw := range work {
		st := gpusim.Stage{
			Name:          "encoder/forward",
			WorkOps:       float64(sw.FirstNNZ),
			CyclesPerOp:   madCycles,
			ParallelOps:   float64(len(sw.FirstLens)),
			MemBytes:      float64(sw.FirstNNZ) * 48,
			WarpImbalance: WarpImbalance(sw.FirstLens, sortRows),
		}
		if k == 0 {
			st.HostBytesIn = float64(msgLen) * perfmodel.FieldBytes
		}
		stages = append(stages, st)
	}
	baseLen := msgLen >> uint(len(work))
	stages = append(stages, gpusim.Stage{
		Name:        "encoder/base",
		WorkOps:     float64(encoder.RateInv * baseLen),
		CyclesPerOp: costs.FieldAddCycles,
		MemBytes:    float64(encoder.RateInv*baseLen) * 2 * perfmodel.FieldBytes,
	})
	for k := len(work) - 1; k >= 0; k-- {
		sw := work[k]
		st := gpusim.Stage{
			Name:          "encoder/backward",
			WorkOps:       float64(sw.SecondNNZ),
			CyclesPerOp:   madCycles,
			ParallelOps:   float64(len(sw.SecondLens)),
			MemBytes:      float64(sw.SecondNNZ) * 48,
			WarpImbalance: WarpImbalance(sw.SecondLens, sortRows),
		}
		if k == 0 {
			st.HostBytesOut = float64(encoder.RateInv*msgLen) * perfmodel.FieldBytes
		}
		stages = append(stages, st)
	}
	return stages
}

// EncoderTaskBytesForLen computes the in-flight footprint analytically.
func EncoderTaskBytesForLen(msgLen, numStages int) int64 {
	bytes := int64(0)
	for sz := msgLen; sz >= msgLen>>uint(numStages); sz /= 2 {
		bytes += int64(sz) * perfmodel.FieldBytes
	}
	bytes += int64(encoder.RateInv*msgLen) * perfmodel.FieldBytes
	return bytes
}

// SimulateEncoderFromWork models batch encoding from an analytic work
// profile (Table 5 at full scale).
func SimulateEncoderFromWork(spec gpusim.DeviceSpec, costs perfmodel.OpCosts, work []encoder.StageWork, msgLen, batch int, scheme Scheme, overlap, sortRows bool) (*gpusim.Report, error) {
	stages := EncoderStagesFromWork(work, msgLen, costs, sortRows)
	taskBytes := EncoderTaskBytesForLen(msgLen, len(work))
	switch scheme {
	case Pipelined:
		return gpusim.RunPipelined(spec, stages, batch, gpusim.Options{
			Overlap: overlap, TaskBytes: taskBytes,
		})
	case Naive:
		threads := msgLen
		if threads > spec.Cores {
			threads = spec.Cores
		}
		return gpusim.RunNaive(spec, stages, batch, threads, gpusim.Options{
			TaskBytes: taskBytes,
		})
	default:
		return nil, fmt.Errorf("pipeline: unknown scheme %q", scheme)
	}
}

// EncoderTaskBytes is the in-flight footprint of one encoding: the stage
// inputs retained for reassembly plus the growing codeword.
func EncoderTaskBytes(enc *encoder.Encoder) int64 {
	bytes := int64(0)
	for sz := enc.MessageLen(); sz >= enc.MessageLen()>>uint(enc.NumStages()); sz /= 2 {
		bytes += int64(sz) * perfmodel.FieldBytes
	}
	bytes += int64(enc.CodewordLen()) * perfmodel.FieldBytes
	return bytes
}

// Scheme selects the execution strategy being modelled.
type Scheme string

// Available schemes.
const (
	Pipelined Scheme = "pipelined" // stage-per-kernel (this paper)
	Naive     Scheme = "naive"     // one kernel per task (Simon/Icicle-style)
)

// SimulateMerkle models batch Merkle-tree generation (Table 3 rows).
func SimulateMerkle(spec gpusim.DeviceSpec, costs perfmodel.OpCosts, numBlocks, batch int, scheme Scheme, overlap bool) (*gpusim.Report, error) {
	stages, err := MerkleStages(numBlocks, costs)
	if err != nil {
		return nil, err
	}
	switch scheme {
	case Pipelined:
		return gpusim.RunPipelined(spec, stages, batch, gpusim.Options{
			Overlap:   overlap,
			TaskBytes: MerkleTaskBytes(numBlocks),
		})
	case Naive:
		threads := numBlocks
		if threads > spec.Cores {
			threads = spec.Cores
		}
		return gpusim.RunNaive(spec, stages, batch, threads, gpusim.Options{
			TaskBytes:    int64(numBlocks) * perfmodel.HashBlockBytes,
			PreloadTasks: batch,
		})
	default:
		return nil, fmt.Errorf("pipeline: unknown scheme %q", scheme)
	}
}

// SimulateSumcheck models batch sum-check proving (Table 4 rows).
func SimulateSumcheck(spec gpusim.DeviceSpec, costs perfmodel.OpCosts, nVars, batch int, scheme Scheme, overlap bool) (*gpusim.Report, error) {
	stages, err := SumcheckStages(nVars, costs)
	if err != nil {
		return nil, err
	}
	switch scheme {
	case Pipelined:
		return gpusim.RunPipelined(spec, stages, batch, gpusim.Options{
			Overlap:   overlap,
			TaskBytes: SumcheckTaskBytes(nVars),
		})
	case Naive:
		threads := 1 << (nVars - 1)
		if threads > spec.Cores {
			threads = spec.Cores
		}
		return gpusim.RunNaive(spec, stages, batch, threads, gpusim.Options{
			TaskBytes:    int64(1<<nVars) * perfmodel.FieldBytes,
			PreloadTasks: batch,
		})
	default:
		return nil, fmt.Errorf("pipeline: unknown scheme %q", scheme)
	}
}

// SimulateEncoder models batch linear-time encoding (Table 5 rows). The
// naive scheme is "Ours-np": the same kernels executed one task at a time.
func SimulateEncoder(spec gpusim.DeviceSpec, costs perfmodel.OpCosts, enc *encoder.Encoder, batch int, scheme Scheme, overlap, sortRows bool) (*gpusim.Report, error) {
	stages := EncoderStages(enc, costs, sortRows)
	switch scheme {
	case Pipelined:
		return gpusim.RunPipelined(spec, stages, batch, gpusim.Options{
			Overlap:   overlap,
			TaskBytes: EncoderTaskBytes(enc),
		})
	case Naive:
		threads := enc.MessageLen()
		if threads > spec.Cores {
			threads = spec.Cores
		}
		return gpusim.RunNaive(spec, stages, batch, threads, gpusim.Options{
			TaskBytes: EncoderTaskBytes(enc),
		})
	default:
		return nil, fmt.Errorf("pipeline: unknown scheme %q", scheme)
	}
}

// sortedCopy is kept for tests that need an independently sorted view.
func sortedCopy(lens []byte) []byte {
	out := append([]byte(nil), lens...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
