package sumcheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// eqProductDiff runs ProveEqProduct over (f, g) — tables that may be
// shorter than 2^len(τ), zero past their end — and ProveTriple over
// (eq(τ, ·), f, g) padded, and reports where they differ: messages,
// point, claim or the f, g finals.
func eqProductDiff(tau, f, g []field.Element) error {
	n := len(tau)
	pad := func(v []field.Element) *poly.Multilinear {
		evals := make([]field.Element, 1<<n)
		copy(evals, v)
		m, err := poly.NewMultilinear(evals)
		if err != nil {
			panic(err)
		}
		return m
	}
	wantP, wantPt, wantC, wantF, err := ProveTriple(pad(poly.EqTable(tau)), pad(f), pad(g), transcript.New("eq"))
	if err != nil {
		return err
	}
	gotP, gotPt, gotC, gotF := ProveEqProduct(tau, TableSource(f, g), transcript.New("eq"))
	switch {
	case !reflect.DeepEqual(gotP, wantP):
		return fmt.Errorf("messages differ")
	case !field.VectorEqual(gotPt, wantPt):
		return fmt.Errorf("points differ")
	case gotC != wantC:
		return fmt.Errorf("claims differ")
	case gotF[0] != wantF[1] || gotF[1] != wantF[2]:
		return fmt.Errorf("finals differ")
	}
	return nil
}

// eqTaus returns the τ vectors of n entries the differential tests try:
// random ones, and ones holding 0 and 1, where the derived q(1) would
// divide by zero or the eq factor of a half vanishes.
func eqTaus(rng *rand.Rand, n int) map[string][]field.Element {
	random := func() []field.Element {
		v := make([]field.Element, n)
		for i := range v {
			var b [64]byte
			rng.Read(b[:])
			v[i].SetBytesWide(b[:])
		}
		return v
	}
	out := map[string][]field.Element{"random": random()}
	if n > 0 {
		zeros, ones, mixed := random(), random(), random()
		zeros[n-1], zeros[0] = field.Element{}, field.Element{}
		ones[n-1], ones[n/2] = field.One(), field.One()
		for i := range mixed {
			switch i % 3 {
			case 0:
				mixed[i] = field.Element{}
			case 1:
				mixed[i] = field.One()
			}
		}
		out["zeros"], out["ones"], out["mixed"] = zeros, ones, mixed
	}
	return out
}

// TestEqProductMatchesTriple: the eq-split prover sends exactly the
// generic triple prover's messages over the stored table eq(τ, ·), on the
// serial and the parallel path, for τ holding 0 and 1, and for tables
// whose high half (or more) is zero padding that the source never holds.
func TestEqProductMatchesTriple(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, parallel := range []bool{false, true} {
		if parallel {
			lowerGrain(t)
			par.SetWidth(2)
		}
		for _, n := range []int{0, 1, 2, 5, 12} {
			size := 1 << n
			for name, tau := range eqTaus(rng, n) {
				for _, real := range []int{size, size/2 + 1, size / 2, size/2 - 1, 1, 0} {
					if real < 0 {
						continue
					}
					f, g := field.RandVector(real), field.RandVector(max(real-1, 0))
					if err := eqProductDiff(tau, f, g); err != nil {
						t.Fatalf("parallel=%v n=%d τ=%s real=%d: %v", parallel, n, name, real, err)
					}
				}
			}
		}
	}
}

// FuzzEqProduct: for random τ (entries 0, 1 or 2 where tauBits says so)
// and random tables of random lengths, the eq-split prover matches the
// generic triple prover over the eq table.
func FuzzEqProduct(f *testing.F) {
	f.Add(uint8(3), int64(1), []byte{0, 1, 2})
	f.Add(uint8(6), int64(2), []byte{9, 9, 0, 9, 9, 1})
	f.Add(uint8(0), int64(3), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, seed int64, tauBits []byte) {
		rng := rand.New(rand.NewSource(seed))
		tau := make([]field.Element, n%8)
		for i := range tau {
			if i < len(tauBits) && tauBits[i] < 3 {
				tau[i].SetUint64(uint64(tauBits[i]))
				continue
			}
			var b [64]byte
			rng.Read(b[:])
			tau[i].SetBytesWide(b[:])
		}
		size := 1 << len(tau)
		tables := make([][]field.Element, 2)
		for i := range tables {
			tables[i] = make([]field.Element, rng.Intn(size+1))
			for j := range tables[i] {
				var b [64]byte
				rng.Read(b[:])
				tables[i][j].SetBytesWide(b[:])
			}
		}
		if err := eqProductDiff(tau, tables[0], tables[1]); err != nil {
			t.Fatalf("n=%d: %v", len(tau), err)
		}
	})
}
