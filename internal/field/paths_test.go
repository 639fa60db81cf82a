package field

import (
	"math/big"
	"math/rand"
	"testing"
)

// goPath runs f with Mul, Square and fromMont on the Go code (mulGo,
// squareGo, redcGo) and restores the path the CPU check chose.
func goPath(f func()) {
	saved := useADX
	useADX = false
	defer func() { useADX = saved }()
	f()
}

// limbPatterns returns raw Montgomery limbs below r that stress the
// assembly's carry chains: the top limb at q3 (the bound the no-carry
// CIOS relies on), all-ones lower limbs, and alternating all-ones and
// zero limbs, next to the canonical edge values.
func limbPatterns() []Element {
	const ones = ^uint64(0)
	out := []Element{
		{0, 0, 0, q3},
		{ones, ones, ones, q3 - 1},
		{q0 - 1, q1, q2, q3}, // r − 1 as raw limbs
		{ones, ones, ones, 0},
		{ones, 0, ones, 0},
		{0, ones, 0, q3 - 1},
		{ones, 0, 0, 0},
		{0, 0, ones, 0},
		one, // R mod r: 1 in Montgomery form
		rSquare,
	}
	return append(out, arithEdgeCases()...)
}

// checkPaths requires the entry points on the current path (assembly
// where useADX holds) to agree with the Go kernels and the loop-CIOS
// reference on x and y.
func checkPaths(t testing.TB, x, y Element) {
	t.Helper()
	var got, goRes, ref Element
	got.Mul(&x, &y)
	mulGo(&goRes, &x, &y)
	MulGeneric(&ref, &x, &y)
	if got != goRes || got != ref {
		t.Fatalf("Mul(%x, %x) = %x, mulGo %x, MulGeneric %x", x, y, got, goRes, ref)
	}
	got.Square(&x)
	squareGo(&goRes, &x)
	mulGo(&ref, &x, &x)
	if got != goRes || got != ref {
		t.Fatalf("Square(%x) = %x, squareGo %x, mulGo(x, x) %x", x, got, goRes, ref)
	}
	got = x.fromMont()
	goRes = x
	redcGo(&goRes)
	mulGo(&ref, &x, &Element{1})
	if got != goRes || got != ref {
		t.Fatalf("fromMont(%x) = %x, redcGo %x, mulGo(x, 1) %x", x, got, goRes, ref)
	}
}

// TestAssemblyMatchesGo pins the MULX/ADX kernels to the Go ones, bit for
// bit, over the limb patterns' cross product and 20,000 random pairs
// (TestMulSquareDifferential pins MulGeneric to big.Int). On a CPU
// without ADX, or in the purego build, both sides are the Go code.
func TestAssemblyMatchesGo(t *testing.T) {
	if !useADX {
		t.Log("no MULX/ADX path in this build or on this CPU: comparing Go with itself")
	}
	cases := limbPatterns()
	for _, x := range cases {
		for _, y := range cases {
			checkPaths(t, x, y)
		}
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 20000; i++ {
		x, y := randElement(rng), randElement(rng)
		checkPaths(t, x, y)
	}
}

// TestPathSwitch runs a chain of products, squares and conversions on
// each path in one binary and requires the same bytes from both; with
// useADX cleared, the assembly entry points take their jump to the Go
// code, the path of a CPU without ADX.
func TestPathSwitch(t *testing.T) {
	chain := func() [Bytes]byte {
		x, y := NewElement(3), NewElement(0x9e3779b97f4a7c15)
		for i := 0; i < 1000; i++ {
			x.Mul(&x, &y)
			y.Square(&x)
			y.Add(&y, &x)
		}
		return y.ToBytes()
	}
	fast := chain()
	var slow [Bytes]byte
	goPath(func() { slow = chain() })
	if fast != slow {
		t.Fatalf("paths disagree: %x vs %x", fast, slow)
	}
}

// TestFromMontgomeryPutLimbs: on each path, FromMontgomery then PutLimbs
// writes exactly PutBytes' encoding, in place or into a second vector,
// and the limbs are the element's canonical value.
func TestFromMontgomeryPutLimbs(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	src := append(limbPatterns(), Element{})
	for i := 0; i < 1000; i++ {
		src = append(src, randElement(rng))
	}
	check := func() {
		dst := make([]Element, len(src))
		FromMontgomery(dst, src)
		inPlace := append([]Element(nil), src...)
		FromMontgomery(inPlace, inPlace)
		var got, want [Bytes]byte
		for i := range src {
			if inPlace[i] != dst[i] {
				t.Fatalf("in place %x, into dst %x", inPlace[i], dst[i])
			}
			dst[i].PutLimbs(got[:])
			src[i].PutBytes(want[:])
			if got != want || src[i].BigInt().Cmp(new(big.Int).SetBytes(got[:])) != 0 {
				t.Fatalf("%x: PutLimbs of its canonical limbs %x, PutBytes %x", src[i], got, want)
			}
		}
	}
	check()
	goPath(check)
}

func BenchmarkMulGo(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x, y := randElement(r), randElement(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulGo(&x, &x, &y)
	}
}

func BenchmarkSquareGo(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x := randElement(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		squareGo(&x, &x)
	}
}

var sinkBytes [Bytes]byte

func BenchmarkPutBytes(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x := randElement(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.PutBytes(sinkBytes[:])
	}
}
