// Package msm implements multi-scalar multiplication Σ kᵢ·Pᵢ with
// Pippenger's bucket algorithm — the dominant operation of the
// Groth16-family baselines (Libsnark, Bellperson, GZKP) that BatchZK's
// Table 7 compares against.
//
// Bucket accumulation is batch-affine: per window, the points landing in
// each bucket are collapsed by pair-and-reduce rounds whose affine chord
// additions share one Montgomery batch inversion per round — ~6
// mul-equivalents per addition versus the 11M+5S a Jacobian add costs.
// Only the final running-sum sweep (2^c buckets) runs in Jacobian
// coordinates, via the dedicated mixed-addition formulas. The window size
// minimizes the resulting mul-equivalent cost model; Parallel variants
// shard the scalars across goroutines the way Bellperson shards across GPU
// thread blocks, which the performance model uses to derive the baseline's
// core utilization.
package msm

import (
	"encoding/binary"
	"fmt"

	"batchzk/internal/curve"
	"batchzk/internal/field"
	"batchzk/internal/fp"
	"batchzk/internal/par"
)

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

// WindowBits picks the Pippenger window size c for n points by minimizing
// the batch-affine mul-equivalent cost ⌈Bits/c⌉·(6n + 27·2^c) over
// c ∈ [2, 16] — each of the ⌈Bits/c⌉ windows pays ~6 muls per amortized
// affine bucket addition and ~27 muls per bucket in the Jacobian
// running-sum sweep. Ties break toward the smaller window (fewer buckets,
// less memory).
func WindowBits(n int) int {
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

// Naive computes Σ kᵢ·Pᵢ by independent scalar multiplications; the
// reference the tests compare Pippenger against.
func Naive(points []curve.AffinePoint, scalars []field.Element) (curve.AffinePoint, error) {
	if len(points) != len(scalars) {
		return curve.AffinePoint{}, fmt.Errorf("msm: %d points vs %d scalars", len(points), len(scalars))
	}
	var acc, term curve.JacobianPoint
	for i := range points {
		term.ScalarMul(&points[i], &scalars[i])
		acc.Add(&acc, &term)
	}
	return acc.ToAffine(), nil
}

// scalarWords returns the canonical (non-Montgomery) value of k as four
// little-endian 64-bit words, the layout digit extraction shifts against.
func scalarWords(k *field.Element) [4]uint64 {
	b := k.ToBytes() // big-endian
	return [4]uint64{
		binary.BigEndian.Uint64(b[24:32]),
		binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]),
		binary.BigEndian.Uint64(b[0:8]),
	}
}

// digitsFlat fills dst (length n·numWindows) with the c-bit decomposition
// of every scalar; digit (i, w) — bits [w·c, (w+1)·c) of scalar i — lives
// at dst[i·numWindows + w]. One flat slice replaces the former per-scalar
// [][]uint32, and digits come from word shifts instead of per-bit byte
// probing.
func digitsFlat(dst []uint32, scalars []field.Element, c, numWindows int) {
	mask := uint64(1)<<uint(c) - 1
	for i := range scalars {
		words := scalarWords(&scalars[i])
		row := dst[i*numWindows : (i+1)*numWindows]
		for w := range row {
			lo := w * c
			word, shift := lo/64, uint(lo%64)
			v := words[word] >> shift
			if shift+uint(c) > 64 && word+1 < 4 {
				v |= words[word+1] << (64 - shift)
			}
			row[w] = uint32(v & mask)
		}
	}
}

// pippengerState owns every buffer the batch-affine window loop touches,
// so the per-window work runs allocation-free once the state is sized.
type pippengerState struct {
	c          int
	numWindows int
	digits     []uint32            // n×numWindows digits, row-major per scalar
	counts     []int32             // live entries per bucket
	starts     []int32             // segment start of each bucket in work
	work       []curve.AffinePoint // flattened bucket contents
	active     []int32             // buckets with ≥2 live entries
	kinds      []curve.AffineAddKind
	denoms     []fp.Element
	invs       []fp.Element
	scratch    []fp.Element
}

func newPippengerState(n, c int) *pippengerState {
	numWindows := (field.Bits + c - 1) / c
	numBuckets := 1 << uint(c)
	pairCap := n/2 + 1
	return &pippengerState{
		c:          c,
		numWindows: numWindows,
		digits:     make([]uint32, n*numWindows),
		counts:     make([]int32, numBuckets),
		starts:     make([]int32, numBuckets),
		work:       make([]curve.AffinePoint, n),
		active:     make([]int32, 0, numBuckets),
		kinds:      make([]curve.AffineAddKind, pairCap),
		denoms:     make([]fp.Element, pairCap),
		invs:       make([]fp.Element, pairCap),
		scratch:    make([]fp.Element, pairCap),
	}
}

// accumulateWindow reduces window w to a single Jacobian sum: scatter the
// points with a nonzero digit into contiguous per-bucket segments of work,
// collapse every bucket by pair-and-reduce rounds that share one field
// inversion per round, then run the running-sum sweep over the (now
// ≤1-point) buckets. Allocation-free.
func (st *pippengerState) accumulateWindow(points []curve.AffinePoint, w int, sum *curve.JacobianPoint) {
	numBuckets := 1 << uint(st.c)
	counts, starts := st.counts, st.starts
	for b := range counts {
		counts[b] = 0
	}
	for i := range points {
		counts[st.digits[i*st.numWindows+w]]++
	}
	pos := int32(0)
	for b := 1; b < numBuckets; b++ { // bucket 0 contributes nothing
		starts[b] = pos
		pos += counts[b]
	}
	for b := range counts { // reuse counts as scatter cursors
		counts[b] = 0
	}
	for i := range points {
		d := st.digits[i*st.numWindows+w]
		if d == 0 {
			continue
		}
		st.work[starts[d]+counts[d]] = points[i]
		counts[d]++
	}

	st.active = st.active[:0]
	for b := 1; b < numBuckets; b++ {
		if counts[b] >= 2 {
			st.active = append(st.active, int32(b))
		}
	}
	for len(st.active) > 0 {
		// Classify every pair first so the denominators can share one
		// batch inversion; completion below must therefore not clobber an
		// operand before its pair is resolved — pair t of a segment writes
		// slot s+t and reads s+2t, s+2t+1, which later pairs never touch.
		pairs := 0
		for _, b := range st.active {
			s, cnt := starts[b], counts[b]
			for t := int32(0); t < cnt/2; t++ {
				l := s + 2*t
				st.kinds[pairs] = curve.ClassifyAffineAdd(&st.work[l], &st.work[l+1], &st.denoms[pairs])
				pairs++
			}
		}
		fp.BatchInverseWithScratch(st.invs[:pairs], st.denoms[:pairs], st.scratch[:pairs])
		pairs = 0
		next := st.active[:0]
		for _, b := range st.active {
			s, cnt := starts[b], counts[b]
			half := cnt / 2
			for t := int32(0); t < half; t++ {
				l := s + 2*t
				curve.CompleteAffineAdd(&st.work[s+t], &st.work[l], &st.work[l+1], st.kinds[pairs], &st.invs[pairs])
				pairs++
			}
			if cnt%2 == 1 {
				st.work[s+half] = st.work[s+cnt-1]
				counts[b] = half + 1
			} else {
				counts[b] = half
			}
			if counts[b] >= 2 {
				next = append(next, b)
			}
		}
		st.active = next
	}

	// Running-sum trick: Σ d·bucket[d] via two sweeps. Collapsed buckets
	// may hold the identity (full cancellation) — AddMixed absorbs it.
	var running, windowSum curve.JacobianPoint
	for b := numBuckets - 1; b >= 1; b-- {
		if counts[b] == 1 {
			running.AddMixed(&running, &st.work[starts[b]])
		}
		windowSum.Add(&windowSum, &running)
	}
	*sum = windowSum
}

// Pippenger computes Σ kᵢ·Pᵢ with the batch-affine bucket method.
func Pippenger(points []curve.AffinePoint, scalars []field.Element) (curve.AffinePoint, error) {
	if len(points) != len(scalars) {
		return curve.AffinePoint{}, fmt.Errorf("msm: %d points vs %d scalars", len(points), len(scalars))
	}
	if len(points) == 0 {
		return curve.Identity(), nil
	}
	c := WindowBits(len(points))
	st := newPippengerState(len(points), c)
	digitsFlat(st.digits, scalars, c, st.numWindows)

	var result, windowSum curve.JacobianPoint
	for w := st.numWindows - 1; w >= 0; w-- {
		for s := 0; s < c; s++ {
			result.Double(&result)
		}
		st.accumulateWindow(points, w, &windowSum)
		result.Add(&result, &windowSum)
	}
	return result.ToAffine(), nil
}

// Parallel computes the MSM by splitting the input across the shared
// kernel runtime and summing the per-chunk partial MSMs in chunk order;
// workers ≤ 0 selects the runtime's default width. The group sum is
// exact, so the result matches Pippenger over the whole input for any
// chunking.
func Parallel(points []curve.AffinePoint, scalars []field.Element, workers int) (curve.AffinePoint, error) {
	if len(points) != len(scalars) {
		return curve.AffinePoint{}, fmt.Errorf("msm: %d points vs %d scalars", len(points), len(scalars))
	}
	if len(points) == 0 {
		return curve.Identity(), nil
	}
	k := par.Chunks(workers, len(points))
	if k <= 1 {
		return Pippenger(points, scalars)
	}
	partials := make([]curve.AffinePoint, k)
	errs := make([]error, k)
	par.ForChunks(k, len(points), func(c, lo, hi int) {
		partials[c], errs[c] = Pippenger(points[lo:hi], scalars[lo:hi])
	})
	var acc curve.JacobianPoint
	for c := range partials {
		if errs[c] != nil {
			return curve.AffinePoint{}, errs[c]
		}
		pj := partials[c].ToJacobian()
		acc.Add(&acc, &pj)
	}
	return acc.ToAffine(), nil
}

// WorkPointOps estimates the group-operation count of a Pippenger MSM over
// n points — the quantity the Bellperson/Libsnark performance models
// charge. Each window processes n bucket additions plus ~2^{c+1} sweep
// additions, and there are ⌈254/c⌉ windows (plus 254 doublings). With
// batch-affine buckets the per-op costs differ by class; WorkBreakdown
// exposes the split for models that charge them separately.
func WorkPointOps(n int) int {
	b, s, d := WorkBreakdown(n)
	return b + s + d
}

// WorkBreakdown splits the Pippenger operation count into the three cost
// classes the batch-affine implementation pays differently: amortized
// affine bucket additions (~6 mul-equivalents each), running-sum sweep
// additions over the 2^{c+1} per-window bucket visits (full Jacobian
// cost), and the per-window doublings.
func WorkBreakdown(n int) (bucketAdds, sweepAdds, doublings int) {
	if n <= 0 {
		return 0, 0, 0
	}
	c := WindowBits(n)
	numWindows := (field.Bits + c - 1) / c
	return numWindows * n, numWindows * (2 << uint(c)), field.Bits
}
