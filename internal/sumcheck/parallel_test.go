package sumcheck

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// Parallel-vs-serial bit-identity for every prover variant: round
// messages are chunk-ordered reductions and folds write disjoint
// indices, so the proof structs (and hence the Fiat–Shamir challenges)
// must be byte-identical at any width. Odd half-table splits occur
// naturally as the tables shrink: 2^5 → halves 16, 8, 4, 2, 1.

func lowerGrain(t *testing.T) {
	t.Helper()
	old := parallelHalf
	parallelHalf = 1
	t.Cleanup(func() {
		parallelHalf = old
		par.SetWidth(0)
	})
}

func randMultilinearFrom(rng *rand.Rand, n int) *poly.Multilinear {
	evals := make([]field.Element, 1<<n)
	for i := range evals {
		var b [64]byte
		rng.Read(b[:])
		evals[i].SetBytesWide(b[:])
	}
	m, err := poly.NewMultilinear(evals)
	if err != nil {
		panic(err)
	}
	return m
}

func TestProveBitIdenticalAcrossWidths(t *testing.T) {
	lowerGrain(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMultilinearFrom(rng, 5)
		var want *Proof
		for wi, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			par.SetWidth(w)
			proof, _, _ := Prove(m.Clone(), transcript.New("sc"))
			if wi == 0 {
				want = proof
			} else if !reflect.DeepEqual(proof, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestProveProductBitIdenticalAcrossWidths(t *testing.T) {
	lowerGrain(t)
	rng := rand.New(rand.NewSource(42))
	f := randMultilinearFrom(rng, 5)
	g := randMultilinearFrom(rng, 5)
	par.SetWidth(1)
	want, _, _, _, err := ProveProduct(f, g, transcript.New("sc2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		par.SetWidth(w)
		got, _, _, _, err := ProveProduct(f, g, transcript.New("sc2"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d: product proof differs from serial", w)
		}
	}
}

func TestProveAffineBitIdenticalAcrossWidths(t *testing.T) {
	lowerGrain(t)
	rng := rand.New(rand.NewSource(43))
	a := randMultilinearFrom(rng, 5)
	v := randMultilinearFrom(rng, 5)
	c := randMultilinearFrom(rng, 5)
	var claim, tmp field.Element
	at, vt, ct := a.Evals(), v.Evals(), c.Evals()
	for b := range at {
		tmp.Mul(&at[b], &vt[b])
		claim.Add(&claim, &tmp)
		claim.Add(&claim, &ct[b])
	}
	par.SetWidth(1)
	want, _, _, err := ProveAffineProduct(a, v, c, claim, transcript.New("scA"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		par.SetWidth(w)
		got, _, _, err := ProveAffineProduct(a, v, c, claim, transcript.New("scA"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d: affine proof differs from serial", w)
		}
	}
}

func TestProveTripleBitIdenticalAcrossWidths(t *testing.T) {
	lowerGrain(t)
	rng := rand.New(rand.NewSource(44))
	e := randMultilinearFrom(rng, 5)
	f := randMultilinearFrom(rng, 5)
	g := randMultilinearFrom(rng, 5)
	par.SetWidth(1)
	want, _, _, _, err := ProveTriple(e, f, g, transcript.New("sc3"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		par.SetWidth(w)
		got, _, _, _, err := ProveTriple(e, f, g, transcript.New("sc3"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d: triple proof differs from serial", w)
		}
	}
}

// Every prover runs on the caller's tables without cloning them, so it
// must leave them exactly as it found them — callers (gkr, the benchmark's
// kernel replay) prove over the same tables again.
func TestProductProversLeaveInputsUntouched(t *testing.T) {
	lowerGrain(t)
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{0, 1, 2, 6} {
		a := randMultilinearFrom(rng, n)
		b := randMultilinearFrom(rng, n)
		c := randMultilinearFrom(rng, n)
		before := [3][]field.Element{}
		for i, m := range []*poly.Multilinear{a, b, c} {
			before[i] = append([]field.Element(nil), m.Evals()...)
		}
		var claim, tmp field.Element
		for i := range before[0] {
			tmp.Mul(&before[0][i], &before[1][i])
			claim.Add(&claim, &tmp)
			claim.Add(&claim, &before[2][i])
		}
		if _, _, _, _, err := ProveTriple(a, b, c, transcript.New("sc3")); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := ProveProduct(a, b, transcript.New("sc2")); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ProveAffineProduct(a, b, c, claim, transcript.New("scA")); err != nil {
			t.Fatal(err)
		}
		Prove(a, transcript.New("sc1"))
		if _, _, err := ProveWithChallenges(b, field.RandVector(n)); err != nil {
			t.Fatal(err)
		}
		for i, m := range []*poly.Multilinear{a, b, c} {
			if !field.VectorEqual(m.Evals(), before[i]) {
				t.Fatalf("n=%d: input table %d was modified", n, i)
			}
		}
	}
}
