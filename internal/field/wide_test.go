package field

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// mulAddRef is the term-by-term form the wide kernel replaces: one
// Montgomery Mul by the coefficient's field element and one reduced Add
// per term.
func mulAddRef(vs []uint64, xs []Element) Element {
	var s, t, c Element
	for i, v := range vs {
		c.SetUint64(v)
		t.Mul(&c, &xs[i])
		s.Add(&s, &t)
	}
	return s
}

func wideSum(vs []uint64, xs []Element) Element {
	var acc Wide
	for i, v := range vs {
		acc.MulAccSmall(v, &xs[i])
	}
	var e Element
	e.ReduceWide(&acc)
	return e
}

// wideBig is the accumulator's integer value.
func wideBig(a *Wide) *big.Int {
	b := new(big.Int)
	for i := len(a) - 1; i >= 0; i-- {
		b.Lsh(b, 64)
		b.Or(b, new(big.Int).SetUint64(a[i]))
	}
	return b
}

// rMinusOne is the largest reduced element, r−1, as raw limbs (MulAccSmall
// reads the Montgomery limbs, so this is the largest limb value a reduced
// Element can carry).
var rMinusOne = Element{q0 - 1, q1, q2, q3}

func TestWideMatchesMulAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(MaxWideTerms)
		vs := make([]uint64, n)
		xs := make([]Element, n)
		for i := range vs {
			vs[i] = rng.Uint64()
			if rng.Intn(4) == 0 {
				vs[i] = ^uint64(0)
			}
			switch rng.Intn(4) {
			case 0:
				xs[i] = rMinusOne
			case 1:
				xs[i] = Element{}
			default:
				xs[i].SetUint64(rng.Uint64())
				var y Element
				y.SetUint64(rng.Uint64())
				xs[i].Mul(&xs[i], &y)
			}
		}
		got, want := wideSum(vs, xs), mulAddRef(vs, xs)
		if got != want {
			t.Fatalf("trial %d (%d terms): wide %v, Mul+Add %v", trial, n, got.String(), want.String())
		}
	}
}

// TestWideExtremeAccumulation drives the accumulator to its documented
// limit: 255 terms of the largest coefficient times the largest limb
// value, the case that leaves the Barrett quotient estimate the least slack.
func TestWideExtremeAccumulation(t *testing.T) {
	for _, n := range []int{1, 2, 16, 254, MaxWideTerms} {
		vs := make([]uint64, n)
		xs := make([]Element, n)
		for i := range vs {
			vs[i], xs[i] = ^uint64(0), rMinusOne
		}
		var acc Wide
		for i := range vs {
			acc.MulAccSmall(vs[i], &xs[i])
		}
		// The accumulator holds the exact integer sum.
		want := new(big.Int).Mul(new(big.Int).SetUint64(^uint64(0)), new(big.Int).Sub(Modulus(), big.NewInt(1)))
		want.Mul(want, big.NewInt(int64(n)))
		if wideBig(&acc).Cmp(want) != 0 {
			t.Fatalf("n=%d: accumulator %v, exact sum %v", n, wideBig(&acc), want)
		}
		var got Element
		got.ReduceWide(&acc)
		if ref := mulAddRef(vs, xs); got != ref {
			t.Fatalf("n=%d: wide %v, Mul+Add %v", n, got.String(), ref.String())
		}
	}
}

// TestReduceWideMatchesBigInt checks the reduction alone on raw limb
// patterns up to its 2³³¹ precondition, including every all-ones prefix.
func TestReduceWideMatchesBigInt(t *testing.T) {
	check := func(a Wide) {
		t.Helper()
		var e Element
		e.ReduceWide(&a)
		want := new(big.Int).Mod(wideBig(&a), Modulus())
		got := wideBig(&Wide{e[0], e[1], e[2], e[3]})
		if got.Cmp(want) != 0 {
			t.Fatalf("ReduceWide(%x) = %v, want %v", a, got, want)
		}
	}
	const top = 1<<11 - 1 // a[5] < 2¹¹ keeps a < 2³³¹
	check(Wide{})
	check(Wide{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), top})
	check(Wide{q0, q1, q2, q3})
	check(Wide{q0 - 1, q1, q2, q3})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		var a Wide
		for j := range a {
			a[j] = rng.Uint64()
		}
		a[5] &= top >> uint(rng.Intn(12))
		check(a)
	}
}

// FuzzWideAccumulate feeds arbitrary bytes as (coefficient, element) pairs
// through the wide kernel and compares with Mul+Add.
func FuzzWideAccumulate(f *testing.F) {
	f.Add(make([]byte, 40))
	worst := make([]byte, 0, 40*MaxWideTerms)
	for i := 0; i < MaxWideTerms; i++ {
		worst = binary.LittleEndian.AppendUint64(worst, ^uint64(0))
		worst = append(worst, new(big.Int).Sub(Modulus(), big.NewInt(1)).Bytes()...)
	}
	f.Add(worst)
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vs []uint64
		var xs []Element
		for len(data) >= 40 && len(vs) < MaxWideTerms {
			vs = append(vs, binary.LittleEndian.Uint64(data))
			var x Element
			x.SetBytesWide(data[8:40])
			xs = append(xs, x)
			data = data[40:]
		}
		if got, want := wideSum(vs, xs), mulAddRef(vs, xs); got != want {
			t.Fatalf("%d terms: wide %v, Mul+Add %v", len(vs), got.String(), want.String())
		}
	})
}

func BenchmarkMulAccSmall(b *testing.B) {
	var x Element
	x.Rand()
	var acc Wide
	for i := 0; i < b.N; i++ {
		acc.MulAccSmall(uint64(i)|1, &x)
		if i&127 == 127 {
			acc = Wide{}
		}
	}
}

func BenchmarkReduceWide(b *testing.B) {
	a := Wide{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), 0xff}
	var e Element
	for i := 0; i < b.N; i++ {
		a[0] = uint64(i)
		e.ReduceWide(&a)
	}
}
