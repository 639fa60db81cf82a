package msm

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"batchzk/internal/curve"
	"batchzk/internal/field"
)

// Differential property tests: Pippenger against the double-and-add
// reference across many sizes (including the window-heuristic
// boundaries) and adversarial scalar distributions — zero, one, r−1,
// sparse bit patterns — that a single fixed-size comparison misses.

// PippengerJacobian is the pre-optimization bucket method — buckets
// accumulated directly in Jacobian coordinates via mixed additions — kept
// as the oracle for the batch-affine path. It shares the flat digit layout
// so the property tests cover both layouts against Naive.
func PippengerJacobian(points []curve.AffinePoint, scalars []field.Element) (curve.AffinePoint, error) {
	if len(points) != len(scalars) {
		return curve.AffinePoint{}, fmt.Errorf("msm: %d points vs %d scalars", len(points), len(scalars))
	}
	if len(points) == 0 {
		return curve.Identity(), nil
	}
	c := WindowBits(len(points))
	numWindows := (field.Bits + c - 1) / c
	digits := make([]uint32, len(scalars)*numWindows)
	digitsFlat(digits, scalars, c, numWindows)

	var result curve.JacobianPoint
	buckets := make([]curve.JacobianPoint, 1<<uint(c))
	for w := numWindows - 1; w >= 0; w-- {
		for s := 0; s < c; s++ {
			result.Double(&result)
		}
		for i := range buckets {
			buckets[i] = curve.JacobianPoint{}
		}
		for i := range points {
			if d := digits[i*numWindows+w]; d != 0 {
				buckets[d].AddMixed(&buckets[d], &points[i])
			}
		}
		var running, windowSum curve.JacobianPoint
		for d := len(buckets) - 1; d >= 1; d-- {
			running.Add(&running, &buckets[d])
			windowSum.Add(&windowSum, &running)
		}
		result.Add(&result, &windowSum)
	}
	return result.ToAffine(), nil
}

// seededScalars derives a reproducible scalar vector mixing uniform
// values with the boundary cases the bucket decomposition must handle.
func seededScalars(rng *rand.Rand, n int) []field.Element {
	rMinus1 := new(big.Int).Sub(field.Modulus(), big.NewInt(1))
	out := make([]field.Element, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i].SetZero()
		case 1:
			out[i].SetOne()
		case 2:
			out[i].SetBigInt(rMinus1) // top digits saturated
		case 3:
			out[i].SetUint64(1 << uint(rng.Intn(64))) // single sparse bit
		default:
			var b [64]byte
			rng.Read(b[:])
			out[i].SetBytesWide(b[:])
		}
	}
	return out
}

func seededPoints(rng *rand.Rand, n int) []curve.AffinePoint {
	g := curve.Generator()
	out := make([]curve.AffinePoint, n)
	for i := range out {
		var k field.Element
		k.SetUint64(rng.Uint64() | 1)
		var j curve.JacobianPoint
		out[i] = j.ScalarMul(&g, &k).ToAffine()
	}
	return out
}

func TestPippengerMatchesDoubleAndAddAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Sizes straddle the WindowBits breakpoints (c changes at powers of
	// two) and include the degenerate ones.
	for _, n := range []int{1, 2, 3, 7, 8, 17, 33, 64, 100} {
		points := seededPoints(rng, n)
		scalars := seededScalars(rng, n)
		want, err := Naive(points, scalars)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Pippenger(points, scalars)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&want) {
			t.Fatalf("n=%d: Pippenger diverges from double-and-add", n)
		}
		jac, err := PippengerJacobian(points, scalars)
		if err != nil {
			t.Fatal(err)
		}
		if !jac.Equal(&want) {
			t.Fatalf("n=%d: PippengerJacobian diverges from double-and-add", n)
		}
		par, err := Parallel(points, scalars, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !par.Equal(&want) {
			t.Fatalf("n=%d: Parallel diverges from double-and-add", n)
		}
	}
}

// TestMSMAdditiveInScalars: MSM(P, a) + MSM(P, b) = MSM(P, a+b) — the
// bilinearity Pippenger's bucket rearrangement must preserve.
func TestMSMAdditiveInScalars(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 24
	points := seededPoints(rng, n)
	a := seededScalars(rng, n)
	b := seededScalars(rng, n)
	sum := make([]field.Element, n)
	for i := range sum {
		sum[i].Add(&a[i], &b[i])
	}
	ra, err := Pippenger(points, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Pippenger(points, b)
	if err != nil {
		t.Fatal(err)
	}
	rsum, err := Pippenger(points, sum)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := ra.ToJacobian(), rb.ToJacobian()
	var acc curve.JacobianPoint
	got := acc.Add(&ja, &jb).ToAffine()
	if !got.Equal(&rsum) {
		t.Fatal("MSM is not additive in its scalar vector")
	}
}

// TestMSMInvariantUnderPermutation: the sum must not depend on input
// order (buckets accumulate commutatively).
func TestMSMInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 32
	points := seededPoints(rng, n)
	scalars := seededScalars(rng, n)
	want, err := Pippenger(points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(n)
	pp := make([]curve.AffinePoint, n)
	ps := make([]field.Element, n)
	for i, j := range perm {
		pp[i], ps[i] = points[j], scalars[j]
	}
	got, err := Pippenger(pp, ps)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&want) {
		t.Fatal("MSM changed under input permutation")
	}
}
