package field

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randElement returns a deterministic pseudo-random element for quick tests.
func randElement(r *rand.Rand) Element {
	var e Element
	v := new(big.Int).Rand(r, Modulus())
	e.SetBigInt(v)
	return e
}

// Generate implements quick.Generator so Element works with testing/quick:
// random values must be properly reduced field elements.
func (Element) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randElement(r))
}

func TestConstants(t *testing.T) {
	// R mod r must equal the stored Montgomery one.
	R := new(big.Int).Lsh(big.NewInt(1), 256)
	R.Mod(R, Modulus())
	var e Element
	e.SetBigInt(big.NewInt(1))
	if got := e.BigInt(); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("round trip of 1 = %v", got)
	}
	if !e.Equal(&one) {
		t.Fatalf("SetBigInt(1) != One()")
	}
	// R^2 mod r must match rSquare: converting R (canonical) to Montgomery
	// form multiplies by R, i.e. the limbs should be R^2 mod r... check via
	// BigInt round trip instead.
	var r2 Element
	r2.SetBigInt(new(big.Int).Mul(R, R))
	want := new(big.Int).Mul(R, R)
	want.Mod(want, Modulus())
	if r2.BigInt().Cmp(want) != 0 {
		t.Fatalf("R^2 round trip mismatch")
	}
}

func TestSetUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 12345, 1 << 40, ^uint64(0)} {
		e := NewElement(v)
		got, ok := e.Uint64()
		if !ok || got != v {
			t.Fatalf("Uint64 round trip of %d = %d, %v", v, got, ok)
		}
	}
}

func TestAddSubMatchBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := randElement(r), randElement(r)
		var sum, diff Element
		sum.Add(&a, &b)
		diff.Sub(&a, &b)

		wantSum := new(big.Int).Add(a.BigInt(), b.BigInt())
		wantSum.Mod(wantSum, Modulus())
		if sum.BigInt().Cmp(wantSum) != 0 {
			t.Fatalf("add mismatch at %d", i)
		}
		wantDiff := new(big.Int).Sub(a.BigInt(), b.BigInt())
		wantDiff.Mod(wantDiff, Modulus())
		if diff.BigInt().Cmp(wantDiff) != 0 {
			t.Fatalf("sub mismatch at %d", i)
		}
	}
}

func TestMulMatchesBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, b := randElement(r), randElement(r)
		var p Element
		p.Mul(&a, &b)
		want := new(big.Int).Mul(a.BigInt(), b.BigInt())
		want.Mod(want, Modulus())
		if p.BigInt().Cmp(want) != 0 {
			t.Fatalf("mul mismatch at %d: got %v want %v", i, p.BigInt(), want)
		}
	}
}

func TestMulEdgeCases(t *testing.T) {
	// Values near the modulus stress the final conditional subtraction.
	nearTop := new(big.Int).Sub(Modulus(), big.NewInt(1))
	var a, b, p Element
	a.SetBigInt(nearTop)
	b.SetBigInt(nearTop)
	p.Mul(&a, &b)
	want := new(big.Int).Mul(nearTop, nearTop)
	want.Mod(want, Modulus())
	if p.BigInt().Cmp(want) != 0 {
		t.Fatalf("(r-1)^2 mismatch")
	}
	var z Element
	p.Mul(&a, &z)
	if !p.IsZero() {
		t.Fatalf("x*0 != 0")
	}
	p.Mul(&a, &one)
	if !p.Equal(&a) {
		t.Fatalf("x*1 != x")
	}
}

func TestPropertyCommutativity(t *testing.T) {
	f := func(a, b Element) bool {
		var ab, ba Element
		ab.Mul(&a, &b)
		ba.Mul(&b, &a)
		var s1, s2 Element
		s1.Add(&a, &b)
		s2.Add(&b, &a)
		return ab.Equal(&ba) && s1.Equal(&s2)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAssociativityAndDistributivity(t *testing.T) {
	f := func(a, b, c Element) bool {
		var t1, t2, t3 Element
		// (a*b)*c == a*(b*c)
		t1.Mul(&a, &b)
		t1.Mul(&t1, &c)
		t2.Mul(&b, &c)
		t2.Mul(&a, &t2)
		if !t1.Equal(&t2) {
			return false
		}
		// a*(b+c) == a*b + a*c
		t1.Add(&b, &c)
		t1.Mul(&a, &t1)
		t2.Mul(&a, &b)
		t3.Mul(&a, &c)
		t2.Add(&t2, &t3)
		return t1.Equal(&t2)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInverse(t *testing.T) {
	f := func(a Element) bool {
		if a.IsZero() {
			var inv Element
			inv.Inverse(&a)
			return inv.IsZero()
		}
		var inv, p Element
		inv.Inverse(&a)
		p.Mul(&a, &inv)
		return p.IsOne()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNegDouble(t *testing.T) {
	f := func(a Element) bool {
		var n, s Element
		n.Neg(&a)
		s.Add(&a, &n)
		if !s.IsZero() {
			return false
		}
		var d Element
		d.Double(&a)
		s.Add(&a, &a)
		return d.Equal(&s)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySerializationRoundTrip(t *testing.T) {
	f := func(a Element) bool {
		b := a.ToBytes()
		var back Element
		if err := back.SetBytes(b); err != nil {
			return false
		}
		return back.Equal(&a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestSetBytesRejectsNonCanonical(t *testing.T) {
	mod := Modulus()
	raw := mod.FillBytes(make([]byte, 32))
	var b [32]byte
	copy(b[:], raw)
	var e Element
	if err := e.SetBytes(b); err == nil {
		t.Fatalf("SetBytes accepted the modulus itself")
	}
	var bad Element
	if err := bad.UnmarshalBinary(make([]byte, 31)); err == nil {
		t.Fatalf("UnmarshalBinary accepted short input")
	}
}

func TestLerp(t *testing.T) {
	f := func(tv, a, b Element) bool {
		var got Element
		got.Lerp(&tv, &a, &b)
		// (1-t)a + tb
		var omt, l, rr Element
		omt.Sub(&one, &tv)
		l.Mul(&omt, &a)
		rr.Mul(&tv, &b)
		l.Add(&l, &rr)
		return got.Equal(&l)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestSetInt64(t *testing.T) {
	var a, b, c Element
	a.SetInt64(-7)
	b.SetInt64(7)
	c.Add(&a, &b)
	if !c.IsZero() {
		t.Fatalf("-7 + 7 != 0")
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []Element{NewElement(1), NewElement(2), NewElement(3)}
	b := []Element{NewElement(10), NewElement(20), NewElement(30)}
	sum := VectorSum(a)
	if v, _ := sum.Uint64(); v != 6 {
		t.Fatalf("VectorSum = %d", v)
	}
	ip := InnerProduct(a, b)
	if v, _ := ip.Uint64(); v != 140 {
		t.Fatalf("InnerProduct = %d", v)
	}
	if !VectorEqual(a, a) || VectorEqual(a, b) || VectorEqual(a, a[:2]) {
		t.Fatalf("VectorEqual misbehaves")
	}
}

func TestRandIsReducedAndVaries(t *testing.T) {
	seen := map[Element]bool{}
	for i := 0; i < 16; i++ {
		var e Element
		e.Rand()
		if e.BigInt().Cmp(Modulus()) >= 0 {
			t.Fatalf("Rand produced unreduced value")
		}
		seen[e] = true
	}
	if len(seen) < 2 {
		t.Fatalf("Rand produced suspiciously repeated values")
	}
}

func TestStringAndMarshal(t *testing.T) {
	e := NewElement(123456789)
	if e.String() != "123456789" {
		t.Fatalf("String = %q", e.String())
	}
	data, err := e.MarshalBinary()
	if err != nil || len(data) != 32 {
		t.Fatalf("MarshalBinary: %v len %d", err, len(data))
	}
	var back Element
	if err := back.UnmarshalBinary(data); err != nil || !back.Equal(&e) {
		t.Fatalf("UnmarshalBinary round trip failed: %v", err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}
}

func BenchmarkMul(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x, y := randElement(r), randElement(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

func BenchmarkAdd(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x, y := randElement(r), randElement(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Add(&x, &y)
	}
}

func BenchmarkInverse(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x := randElement(r)
	var inv Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv.Inverse(&x)
	}
}

// SetBytesWide reduces strings of up to 64 bytes without big.Int; it must
// agree with the big.Int reduction at every length up to and past that,
// on random strings and on all-ones ones (the largest value of a length).
func TestSetBytesWideMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 2*Bytes+8; n++ {
		for trial := 0; trial < 8; trial++ {
			b := make([]byte, n)
			if trial == 0 {
				for i := range b {
					b[i] = 0xff
				}
			} else {
				rng.Read(b)
			}
			var e Element
			e.SetBytesWide(b)
			want := new(big.Int).Mod(new(big.Int).SetBytes(b), Modulus())
			if e.BigInt().Cmp(want) != 0 {
				t.Fatalf("%d bytes %x: SetBytesWide = %v, want %v", n, b, e.BigInt(), want)
			}
		}
	}
}
