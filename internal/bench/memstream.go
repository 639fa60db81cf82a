package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/protocol"
	"batchzk/internal/telemetry"
)

// Streaming-prover memory sweep: the working-set claim of the
// memory-bounded prover made CI-enforceable. The soak in memory.go
// checks that identical waves do not grow — a leak detector. This sweep
// checks the stronger streaming property: growing the batch 8× under
// ProveStream + the out-of-core commit path must leave the per-run heap
// working set flat, because peak memory tracks the in-flight window
// (depth), not the batch — the host-side analogue of the paper's ~2N
// device-block bound. A buffered prover fails this immediately: its
// working set is linear in the batch.

// MemoryStreamFactor is the batch-size multiplier between the sweep's
// two points.
const MemoryStreamFactor = 8

// StreamFlatTolerance is how much the big batch's working set may
// exceed the small batch's before the sweep stops counting as flat:
// growth ≤ 0.5 means the 8× batch stays under 1.5× the heap.
const StreamFlatTolerance = 0.5

// streamGCStride is how many completed proofs elapse between forced
// collections inside a phase, equalizing the allocation-churn window
// across batch sizes so the sweep compares live sets, not GC pacing.
const streamGCStride = 1

// StreamPoint is one batch size's high-water record.
type StreamPoint struct {
	Batch int `json:"batch"`
	// PeakHeapAllocBytes is the point's live-heap high-water mark.
	PeakHeapAllocBytes uint64 `json:"peak_heap_alloc_bytes"`
	// WorkingSetBytes is the heap growth attributable to the run itself
	// (peak − baseline at entry) — the gated figure, immune to resident
	// state from earlier points.
	WorkingSetBytes uint64 `json:"working_set_bytes"`
	AllProofsOK     bool   `json:"all_proofs_ok"`
}

// StreamSweep is the streaming-memory block of BENCH_memory.json.
type StreamSweep struct {
	Factor int           `json:"factor"`
	Depth  int           `json:"depth"`
	Points []StreamPoint `json:"points"`
	// GrowthFrac is ws(last)/ws(first) − 1 on working sets; ≤ 0 when the
	// larger batch needed no more memory.
	GrowthFrac float64 `json:"growth_frac"`
	// Flat is the gated claim: GrowthFrac ≤ StreamFlatTolerance.
	Flat bool `json:"flat"`
}

// AllProofsOK reports whether every point proved every job.
func (s *StreamSweep) AllProofsOK() bool {
	for _, p := range s.Points {
		if !p.AllProofsOK {
			return false
		}
	}
	return len(s.Points) > 0
}

// BuildMemoryStreamSweep proves batch and batch×MemoryStreamFactor jobs
// through fresh depth-bounded provers (ProveStream, jobs generated
// lazily, proofs dropped on emission) and
// gates the working-set growth between the two points.
func BuildMemoryStreamSweep(gates, batch, depth int, seed int64) (*StreamSweep, error) {
	if gates < 16 {
		gates = 16
	}
	if batch < 8 {
		batch = 8
	}
	if depth < 1 {
		depth = 4
	}
	c, err := circuit.RandomCircuit(gates, 2, 2, seed)
	if err != nil {
		return nil, err
	}
	p, err := protocol.Setup(c)
	if err != nil {
		return nil, err
	}

	sweep := &StreamSweep{Factor: MemoryStreamFactor, Depth: depth}
	// Aggressive GC pacing for the duration of the sweep: with a default
	// GOGC the collector lets small heaps grow several-fold before its
	// first cycle, so the observed peak would measure allocation volume
	// (linear in batch, whatever the prover does) instead of live set.
	// This is a memory measurement, not a throughput one — trading speed
	// for a peak that tracks the prover's actual working set is the point.
	oldGC := debug.SetGCPercent(10)
	defer debug.SetGCPercent(oldGC)

	// Warm-up outside the measured region: the first prove of a process
	// builds one-time shared state (the cached encoder tables, lazily
	// grown runtime structures). Charging that build to the first phase
	// would skew the two-point ratio, so a single throwaway job pays for
	// it here.
	if wp, err := core.NewBatchProver(c, p, depth); err == nil {
		warm := false
		wp.ProveStream(func() (core.Job, bool) {
			if warm {
				return core.Job{}, false
			}
			warm = true
			return core.Job{ID: 0, Public: field.RandVector(2), Secret: field.RandVector(2)}, true
		}, func(core.Result) {})
	}

	ms := telemetry.StartMemSampler(telemetry.NewSink(0), time.Millisecond)
	for _, b := range []int{batch, batch * MemoryStreamFactor} {
		// A fresh prover per point: no state carries across batch sizes,
		// and the boundary GC gives the phase a clean baseline.
		bp, err := core.NewBatchProver(c, p, depth)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		phase := fmt.Sprintf("stream-batch%05d", b)
		ms.SetPhase(phase)

		point := StreamPoint{Batch: b, AllProofsOK: true}
		k := 0
		next := func() (core.Job, bool) {
			if k == b {
				return core.Job{}, false
			}
			// Inputs are materialized here, on pull — batch-sized input
			// slabs would defeat the measurement.
			j := core.Job{ID: k, Public: field.RandVector(2), Secret: field.RandVector(2)}
			k++
			return j, true
		}
		done := 0
		bp.ProveStream(next, func(r core.Result) {
			if r.Err != nil {
				point.AllProofsOK = false
			}
			// The proof is dropped here, as a streaming consumer would
			// after shipping it; retaining all b proofs is the caller's
			// choice, not the prover's obligation.
			done++
			if done%streamGCStride == 0 {
				// Collect on a fixed job stride so both phases see the
				// same churn window. Without this, the gated figure is
				// how much of the GOGC allocation budget a phase happens
				// to fill before finishing — the longer phase always
				// fills it — rather than the live set the streaming
				// claim is about. Anything batch-linear still survives
				// these collections and fails the gate.
				ms.Sample()
				runtime.GC()
			}
		})
		ms.Sample()
		for _, ph := range ms.Phases() {
			if ph.Name == phase {
				point.PeakHeapAllocBytes = ph.PeakHeapAllocBytes
				point.WorkingSetBytes = ph.WorkingSetBytes
			}
		}
		sweep.Points = append(sweep.Points, point)
	}
	ms.Stop()

	first, last := sweep.Points[0], sweep.Points[len(sweep.Points)-1]
	switch {
	case first.WorkingSetBytes > 0:
		sweep.GrowthFrac = float64(last.WorkingSetBytes)/float64(first.WorkingSetBytes) - 1
	case first.PeakHeapAllocBytes > 0:
		sweep.GrowthFrac = float64(last.PeakHeapAllocBytes)/float64(first.PeakHeapAllocBytes) - 1
	}
	sweep.Flat = sweep.GrowthFrac <= StreamFlatTolerance
	return sweep, nil
}
