package field

import (
	"math/big"
	"testing"
)

// arithEdgeCases returns canonical edge values: the group identities,
// values hugging the modulus from below, the Montgomery radix points, and
// limb patterns that stress every carry chain of the unrolled code.
func arithEdgeCases() []Element {
	bigs := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(modulus, big.NewInt(1)), // r−1
		new(big.Int).Sub(modulus, big.NewInt(2)), // r−2
		new(big.Int).Rsh(modulus, 1),             // (r−1)/2
		new(big.Int).Lsh(big.NewInt(1), 64),      // one limb boundary
		new(big.Int).Lsh(big.NewInt(1), 128),
		new(big.Int).Lsh(big.NewInt(1), 192),
		new(big.Int).Lsh(big.NewInt(1), 253),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1)),  // 2⁶⁴−1
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1)), // 2¹²⁸−1
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 192), big.NewInt(1)), // 2¹⁹²−1
		new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 256), modulus),       // R mod r
		new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 512), modulus),       // R² mod r
	}
	out := make([]Element, 0, len(bigs)+8)
	for _, b := range bigs {
		var e Element
		e.SetBigInt(b)
		out = append(out, e)
	}
	for i := 0; i < 8; i++ {
		var e Element
		e.Rand()
		out = append(out, e)
	}
	return out
}

// TestMulSquareDifferential pins the unrolled Mul and the dedicated
// Square against both the retained loop-CIOS reference and big.Int, over
// the full edge-case cross product.
func TestMulSquareDifferential(t *testing.T) {
	cases := arithEdgeCases()
	for i := range cases {
		for j := range cases {
			x, y := cases[i], cases[j]
			var got, ref Element
			got.Mul(&x, &y)
			MulGeneric(&ref, &x, &y)
			if got != ref {
				t.Fatalf("Mul(%v, %v): unrolled %v != generic %v", x.String(), y.String(), got.String(), ref.String())
			}
			want := new(big.Int).Mul(x.BigInt(), y.BigInt())
			want.Mod(want, modulus)
			if got.BigInt().Cmp(want) != 0 {
				t.Fatalf("Mul(%v, %v) = %v, big.Int wants %v", x.String(), y.String(), got.String(), want)
			}
		}
		x := cases[i]
		var sq, sqRef Element
		sq.Square(&x)
		SquareGeneric(&sqRef, &x)
		if sq != sqRef {
			t.Fatalf("Square(%v): dedicated %v != generic %v", x.String(), sq.String(), sqRef.String())
		}
		want := new(big.Int).Mul(x.BigInt(), x.BigInt())
		want.Mod(want, modulus)
		if sq.BigInt().Cmp(want) != 0 {
			t.Fatalf("Square(%v) = %v, big.Int wants %v", x.String(), sq.String(), want)
		}
	}
}

// TestInverseDifferential pins the fixed-chain Inverse against the
// big.Int-exponent reference ladder and checks x·x⁻¹ = 1.
func TestInverseDifferential(t *testing.T) {
	for _, x := range arithEdgeCases() {
		var got, ref Element
		got.Inverse(&x)
		InverseGeneric(&ref, &x)
		if got != ref {
			t.Fatalf("Inverse(%v): chain %v != generic %v", x.String(), got.String(), ref.String())
		}
		if x.IsZero() {
			if !got.IsZero() {
				t.Fatalf("Inverse(0) = %v, want 0", got.String())
			}
			continue
		}
		var p Element
		p.Mul(&x, &got)
		if !p.IsOne() {
			t.Fatalf("x·Inverse(x) = %v for x = %v", p.String(), x.String())
		}
	}
}

// TestSquareMatchesMulRandom cross-checks Square against Mul on a larger
// random sample than the edge matrix.
func TestSquareMatchesMulRandom(t *testing.T) {
	for i := 0; i < 512; i++ {
		var x, sq, mul Element
		x.Rand()
		sq.Square(&x)
		mul.Mul(&x, &x)
		if sq != mul {
			t.Fatalf("Square != Mul(x,x) for x = %v", x.String())
		}
	}
}

// TestHotPathZeroAllocations is the regression gate for the ISSUE's
// allocation-free contract: every scalar hot-path op, and the batch
// inversion through a caller scratch, must not touch the heap.
func TestHotPathZeroAllocations(t *testing.T) {
	var a, b, out Element
	var acc Wide
	a.Rand()
	b.Rand()
	checks := []struct {
		name string
		fn   func()
	}{
		{"Mul", func() { out.Mul(&a, &b) }},
		{"Square", func() { out.Square(&a) }},
		{"Add", func() { out.Add(&a, &b) }},
		{"Sub", func() { out.Sub(&a, &b) }},
		{"Inverse", func() { out.Inverse(&a) }},
		{"MulAccSmall", func() { acc.MulAccSmall(0x9e3779b97f4a7c15, &a) }},
		{"ReduceWide", func() { out.ReduceWide(&acc) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", c.name, n)
		}
	}

	const size = 64
	v := RandVector(size)
	dst := make([]Element, size)
	scratch := make([]Element, size)
	if n := testing.AllocsPerRun(20, func() {
		BatchInverseWithScratch(dst, v, scratch)
	}); n != 0 {
		t.Errorf("BatchInverseWithScratch allocates %.1f times per call, want 0", n)
	}
}

func BenchmarkMulGeneric(b *testing.B) {
	var x, y Element
	x.Rand()
	y.Rand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulGeneric(&x, &x, &y)
	}
}

func BenchmarkSquare(b *testing.B) {
	var x Element
	x.Rand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Square(&x)
	}
}

func BenchmarkSquareGeneric(b *testing.B) {
	var x Element
	x.Rand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquareGeneric(&x, &x)
	}
}

func BenchmarkInverseGeneric(b *testing.B) {
	var x, out Element
	x.Rand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InverseGeneric(&out, &x)
	}
}
