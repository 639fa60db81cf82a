package bench

import (
	"fmt"
	"time"

	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/gpusim"
	"batchzk/internal/perfmodel"
	"batchzk/internal/pipeline"
	"batchzk/internal/protocol"
)

// Alloc reproduces the resource-allocation worked example of §4: the
// per-module thread split the system derives from the modules' amortized
// execution-time ratio (the paper's 35 : 12 : 113 → 2240/768/7296 threads
// on a 5120-core V100 driving 10240 threads).
func Alloc() (*Table, error) {
	t := &Table{
		ID:     "alloc",
		Title:  "Thread allocation across module families (paper §4)",
		Header: []string{"GPU", "S", "Encoder", "Merkle", "Sumcheck", "Ratio (enc:mer:sum)"},
		Notes: []string{
			"the paper's V100 example derives 2240/768/7296 from the measured ratio 35:12:113",
			"our ratio is recomputed from the model's work counts, normalized to merkle = 12",
		},
	}
	for _, spec := range []gpusim.DeviceSpec{perfmodel.V100(), perfmodel.GH200()} {
		for _, logS := range []int{18, 20} {
			rep, err := core.SimulateSystem(spec, perfmodel.GPUCosts(), 1<<logS, 256, true)
			if err != nil {
				return nil, err
			}
			enc := rep.ThreadAllocation["encoder"]
			mer := rep.ThreadAllocation["merkle"]
			sum := rep.ThreadAllocation["sumcheck"]
			norm := 12.0 / float64(mer)
			t.Rows = append(t.Rows, []string{
				spec.Name, fmt.Sprintf("2^%d", logS),
				fmt.Sprintf("%d", enc), fmt.Sprintf("%d", mer), fmt.Sprintf("%d", sum),
				fmt.Sprintf("%.0f : 12 : %.0f", float64(enc)*norm, float64(sum)*norm),
			})
		}
	}
	return t, nil
}

// AblationAlloc contrasts the paper's work-proportional thread allocation
// against a naive equal split across pipeline stages.
func AblationAlloc() (*Table, error) {
	t := &Table{
		ID:     "ablation-alloc",
		Title:  "Resource-allocation ablation: work-proportional vs equal stage shares (GH200)",
		Header: []string{"S", "Proportional (ms/proof)", "Equal shares (ms/proof)", "Slowdown"},
	}
	spec := perfmodel.GH200()
	costs := perfmodel.GPUCosts()
	for _, logS := range []int{18, 20, 22} {
		shape, err := core.ShapeForScale(1 << logS)
		if err != nil {
			return nil, err
		}
		stages, err := core.SystemStages(shape, costs, encoder.DefaultParams())
		if err != nil {
			return nil, err
		}
		prop, err := gpusim.RunPipelined(spec, stages, 256, gpusim.Options{
			Overlap: true, TaskBytes: core.SystemTaskBytes(shape),
		})
		if err != nil {
			return nil, err
		}
		equal, err := gpusim.RunPipelined(spec, stages, 256, gpusim.Options{
			Overlap: true, TaskBytes: core.SystemTaskBytes(shape), EqualShares: true,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("2^%d", logS),
			f3(prop.CycleNs / 1e6), f3(equal.CycleNs / 1e6),
			f2x(equal.CycleNs / prop.CycleNs),
		})
	}
	return t, nil
}

// AblationSort measures the warp-balancing scheme of §3.3: encoder
// throughput with and without bucket-sorted row assignment, plus the raw
// SIMD-imbalance factors of the sampled expanders.
func AblationSort() (*Table, error) {
	t := &Table{
		ID:     "ablation-sort",
		Title:  "Encoder warp-balancing ablation: bucket-sorted vs unsorted rows (GH200)",
		Header: []string{"Size", "Sorted (codes/ms)", "Unsorted (codes/ms)", "Gain", "Imbalance factor (unsorted)"},
	}
	spec := perfmodel.GH200()
	costs := perfmodel.GPUCosts()
	for _, logN := range []int{18, 20, 22} {
		n := 1 << logN
		work, err := encoder.WorkModel(n, encoder.DefaultParams())
		if err != nil {
			return nil, err
		}
		sorted, err := pipeline.SimulateEncoderFromWork(spec, costs, work, n, moduleBatch, pipeline.Pipelined, true, true)
		if err != nil {
			return nil, err
		}
		unsorted, err := pipeline.SimulateEncoderFromWork(spec, costs, work, n, moduleBatch, pipeline.Pipelined, true, false)
		if err != nil {
			return nil, err
		}
		imb := pipeline.WarpImbalance(work[0].SecondLens, false)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("2^%d", logN),
			f3(sorted.ThroughputPerMs()), f3(unsorted.ThroughputPerMs()),
			f2x(sorted.ThroughputPerMs() / unsorted.ThroughputPerMs()),
			fmt.Sprintf("%.3f", imb),
		})
	}
	return t, nil
}

// AblationOverlap measures the multi-stream technology of §3.1/§4:
// system cycle time with and without compute/transfer overlap, per GPU.
func AblationOverlap() (*Table, error) {
	t := &Table{
		ID:     "ablation-overlap",
		Title:  "Multi-stream ablation: pipeline cycle with and without transfer overlap, S = 2^20",
		Header: []string{"GPU", "No overlap (ms)", "Overlap (ms)", "Gain"},
	}
	const S = 1 << 20
	for _, spec := range append(perfmodel.GPUs(), perfmodel.GH200()) {
		with, err := core.SimulateSystem(spec, perfmodel.GPUCosts(), S, 256, true)
		if err != nil {
			return nil, err
		}
		without, err := core.SimulateSystem(spec, perfmodel.GPUCosts(), S, 256, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			spec.Name,
			f3(without.CycleNs / 1e6), f3(with.CycleNs / 1e6),
			f2x(without.CycleNs / with.CycleNs),
		})
	}
	return t, nil
}

// AblationMultiGPU models scale-out across multiple GPUs sharing one
// host: linear until the aggregate link traffic saturates host memory.
func AblationMultiGPU() (*Table, error) {
	t := &Table{
		ID:     "ablation-multigpu",
		Title:  "Multi-GPU scale-out at S = 2^20 (shared 350 GB/s host memory)",
		Header: []string{"GPUs", "Throughput (proofs/s)", "Scaling", "Host-bound"},
	}
	const S = 1 << 20
	const hostGBs = 350
	spec := perfmodel.H100()
	var base float64
	for _, k := range []int{1, 2, 4, 8, 16} {
		rep, err := core.SimulateMultiGPU(spec, k, perfmodel.GPUCosts(), S, 256, hostGBs)
		if err != nil {
			return nil, err
		}
		thr := rep.ThroughputPerMs * 1000
		if k == 1 {
			base = thr
		}
		bound := "no"
		if rep.HostBound {
			bound = "yes"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), fmt.Sprintf("%.1f", thr),
			f2x(thr / base), bound,
		})
	}
	t.Notes = append(t.Notes, "proof jobs are independent, so scaling is linear until the shared host link saturates")
	return t, nil
}

// ProofSize measures real serialized proof sizes across circuit scales
// (the paper, §2.1: proofs of this protocol family "reach several MB"),
// including what the opening's shared Merkle siblings save against one
// path per challenged column (t·depth digests).
func ProofSize() (*Table, error) {
	t := &Table{
		ID:     "proofsize",
		Title:  "Serialized proof size vs circuit scale (real proofs, this host)",
		Header: []string{"Gates", "Wires", "Proof size", "Opening-path digests (indep → shared)"},
	}
	for _, gates := range []int{64, 512, 4096} {
		c, err := circuit.RandomCircuit(gates, 2, 2, int64(gates))
		if err != nil {
			return nil, err
		}
		p, err := protocol.Setup(c)
		if err != nil {
			return nil, err
		}
		proof, err := protocol.Prove(c, p, field.RandVector(2), field.RandVector(2))
		if err != nil {
			return nil, err
		}
		size, err := proof.Size()
		if err != nil {
			return nil, err
		}
		shared, indep := len(proof.PCSProof.Siblings), p.PCS.NumOpenings*proof.Commitment.TreeDepth()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", gates),
			fmt.Sprintf("%d", p.NumWires),
			fmt.Sprintf("%d KiB", size/1024),
			fmt.Sprintf("%d → %d (%.0f%% saved)", indep, shared, 100*(1-float64(shared)/float64(indep))),
		})
	}
	t.Notes = append(t.Notes,
		"opened columns dominate; size grows ≈√S with the matrix rows, reaching MBs at the paper's 2^18+ scales")
	return t, nil
}

// AblationPipeline measures the *real executed* software pipeline: the
// batch prover's wall-clock throughput against a strictly sequential
// prover on the same jobs — the functional counterpart of the modelled
// pipelined-vs-naive comparisons.
func AblationPipeline() (*Table, error) {
	t := &Table{
		ID:     "ablation-pipeline",
		Title:  "Executed batch prover vs sequential prover (real wall clock, this host)",
		Header: []string{"Gates", "Batch", "Sequential (proofs/s)", "Pipelined (proofs/s)", "Gain"},
		Notes:  []string{"runs the actual Go provers; the gain reflects stage overlap on host CPUs"},
	}
	for _, gates := range []int{128, 512} {
		c, err := circuit.RandomCircuit(gates, 2, 2, int64(gates))
		if err != nil {
			return nil, err
		}
		p, err := protocol.Setup(c)
		if err != nil {
			return nil, err
		}
		const batch = 8
		jobs := make([]core.Job, batch)
		for i := range jobs {
			jobs[i] = core.Job{ID: i, Public: field.RandVector(2), Secret: field.RandVector(2)}
		}

		seqStart := time.Now()
		for _, j := range jobs {
			if _, err := protocol.Prove(c, p, j.Public, j.Secret); err != nil {
				return nil, err
			}
		}
		seqElapsed := time.Since(seqStart)

		prover, err := core.NewBatchProver(c, p, 4)
		if err != nil {
			return nil, err
		}
		pipeStart := time.Now()
		results := prover.ProveBatch(jobs)
		pipeElapsed := time.Since(pipeStart)
		for _, r := range results {
			if r.Err != nil {
				return nil, r.Err
			}
		}

		seqRate := float64(batch) / seqElapsed.Seconds()
		pipeRate := float64(batch) / pipeElapsed.Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", gates), fmt.Sprintf("%d", batch),
			fmt.Sprintf("%.1f", seqRate), fmt.Sprintf("%.1f", pipeRate),
			f2x(pipeRate / seqRate),
		})
	}
	return t, nil
}
