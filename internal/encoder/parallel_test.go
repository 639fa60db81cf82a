package encoder

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"batchzk/internal/field"
	"batchzk/internal/par"
)

// Width-independence: one codeword is one worker's job (callers
// parallelize across the rows of a committed matrix), so the encoder's
// output must not depend on the kernel runtime's width.

func lowerGrain(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { par.SetWidth(0) })
}

func TestEncodeBitIdenticalAcrossWidths(t *testing.T) {
	lowerGrain(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 << rng.Intn(3) // 16, 32, 64
		e, err := New(n, DefaultParams())
		if err != nil {
			return false
		}
		x := seededMsg(rng, n)
		var want []field.Element
		for wi, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			par.SetWidth(w)
			got, err := e.Encode(x)
			if err != nil {
				return false
			}
			if wi == 0 {
				want = got
			} else if !field.VectorEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecOddDimsAcrossWidths(t *testing.T) {
	lowerGrain(t)
	// Odd, non-power-of-two dimensions: chunk boundaries fall mid-row-range.
	rng := rand.New(rand.NewSource(77))
	m := sampleMatrix(rng, 37, 23, 2, 7)
	x := seededMsg(rng, 37)
	par.SetWidth(1)
	want := make([]field.Element, m.OutDim)
	if err := m.MulVecInto(want, x); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		par.SetWidth(w)
		got := make([]field.Element, m.OutDim)
		if err := m.MulVecInto(got, x); err != nil {
			t.Fatal(err)
		}
		if !field.VectorEqual(got, want) {
			t.Fatalf("width %d: sparse multiply differs from serial", w)
		}
	}
}
