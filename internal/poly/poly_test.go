package poly

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"batchzk/internal/field"
)

func elem(v uint64) field.Element { return field.NewElement(v) }

func randVec(r *rand.Rand, n int) []field.Element {
	v := make([]field.Element, n)
	for i := range v {
		v[i].SetBigInt(new(big.Int).Rand(r, field.Modulus()))
	}
	return v
}

func TestNewMultilinearValidation(t *testing.T) {
	if _, err := NewMultilinear(nil); err == nil {
		t.Fatal("accepted empty table")
	}
	if _, err := NewMultilinear(make([]field.Element, 3)); err == nil {
		t.Fatal("accepted non-power-of-two table")
	}
	m, err := NewMultilinear(make([]field.Element, 8))
	if err != nil || m.NumVars() != 3 {
		t.Fatalf("NumVars = %d, err %v", m.NumVars(), err)
	}
}

func TestEvaluateOnHypercube(t *testing.T) {
	// At Boolean points, Evaluate must return the table entry.
	r := rand.New(rand.NewSource(1))
	m, _ := NewMultilinear(randVec(r, 8))
	for b := 0; b < 8; b++ {
		pt := []field.Element{
			elem(uint64(b & 1)),
			elem(uint64(b >> 1 & 1)),
			elem(uint64(b >> 2 & 1)),
		}
		got, err := m.Evaluate(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&m.Evals()[b]) {
			t.Fatalf("Evaluate at corner %d mismatch", b)
		}
	}
	if _, err := m.Evaluate(pt2(1, 2)); err == nil {
		t.Fatal("accepted wrong arity")
	}
}

func pt2(a, b uint64) []field.Element { return []field.Element{elem(a), elem(b)} }

func TestEvaluateIsMultilinear(t *testing.T) {
	// p must be degree ≤ 1 in each variable: p(..., x, ...) linear in x.
	r := rand.New(rand.NewSource(2))
	m, _ := NewMultilinear(randVec(r, 16))
	base := randVec(r, 4)
	for v := 0; v < 4; v++ {
		p0 := append([]field.Element{}, base...)
		p1 := append([]field.Element{}, base...)
		p2 := append([]field.Element{}, base...)
		p0[v] = elem(0)
		p1[v] = elem(1)
		p2[v] = elem(2)
		e0, _ := m.Evaluate(p0)
		e1, _ := m.Evaluate(p1)
		e2, _ := m.Evaluate(p2)
		// Linear ⇒ e2 = 2·e1 - e0.
		var want field.Element
		want.Double(&e1)
		want.Sub(&want, &e0)
		if !want.Equal(&e2) {
			t.Fatalf("variable %d is not linear", v)
		}
	}
}

func TestFixLastVariable(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m, _ := NewMultilinear(randVec(r, 16))
	var rv field.Element
	rv.SetBigInt(new(big.Int).Rand(r, field.Modulus()))
	fixed := m.FixLastVariable(rv)
	if fixed.NumVars() != 3 {
		t.Fatalf("NumVars after fix = %d", fixed.NumVars())
	}
	// p(x1,x2,x3, r) must equal fixed(x1,x2,x3) at a random point.
	pt := randVec(r, 3)
	got, _ := fixed.Evaluate(pt)
	want, _ := m.Evaluate(append(append([]field.Element{}, pt...), rv))
	if !got.Equal(&want) {
		t.Fatalf("FixLastVariable inconsistent with Evaluate")
	}
}

func TestEqTable(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	z := randVec(r, 3)
	table := EqTable(z)
	if len(table) != 8 {
		t.Fatalf("EqTable size = %d", len(table))
	}
	// Σ_b eq(b, z)·p(b) == p(z)
	m, _ := NewMultilinear(randVec(r, 8))
	ip := field.InnerProduct(table, m.Evals())
	want, _ := m.Evaluate(z)
	if !ip.Equal(&want) {
		t.Fatalf("eq-table inner product != evaluation")
	}
	// eq at Boolean z reduces to an indicator vector.
	zb := []field.Element{elem(1), elem(0), elem(1)}
	ind := EqTable(zb)
	for b := 0; b < 8; b++ {
		want := elem(0)
		if b == 5 { // bits (1,0,1) low-first = 1 + 4
			want = elem(1)
		}
		if !ind[b].Equal(&want) {
			t.Fatalf("indicator mismatch at %d", b)
		}
	}
}

// eqTableRef is the two-Mul, allocate-per-level construction EqTable
// replaced: next[2b] = v·(1−z), next[2b+1] = v·z.
func eqTableRef(point []field.Element) []field.Element {
	out := []field.Element{field.One()}
	one := field.One()
	for i := len(point) - 1; i >= 0; i-- {
		next := make([]field.Element, 2*len(out))
		var omz field.Element
		omz.Sub(&one, &point[i])
		for b, v := range out {
			next[2*b].Mul(&v, &omz)
			next[2*b+1].Mul(&v, &point[i])
		}
		out = next
	}
	return out
}

func TestEqTableMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for n := 0; n <= 10; n++ {
		z := randVec(r, n)
		if n > 1 {
			z[0], z[n-1] = elem(0), elem(1) // Boolean coordinates too
		}
		if got, want := EqTable(z), eqTableRef(z); !field.VectorEqual(got, want) {
			t.Fatalf("n=%d: in-place EqTable differs from the reference", n)
		}
	}
}

func TestHypercubeSum(t *testing.T) {
	m, _ := NewMultilinear([]field.Element{elem(1), elem(2), elem(3), elem(4)})
	s := m.HypercubeSum()
	if v, _ := s.Uint64(); v != 10 {
		t.Fatalf("HypercubeSum = %d", v)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m, _ := NewMultilinear([]field.Element{elem(1), elem(2)})
	c := m.Clone()
	c.Evals()[0] = elem(99)
	if v, _ := m.Evals()[0].Uint64(); v != 1 {
		t.Fatalf("Clone aliased the table")
	}
}

func TestDenseEvalAddMulScale(t *testing.T) {
	// d = 3 + 2x, e = 1 + x^2
	d := NewDense([]field.Element{elem(3), elem(2)})
	e := NewDense([]field.Element{elem(1), elem(0), elem(1)})
	x := elem(5)
	ev := d.Eval(&x)
	if v, _ := ev.Uint64(); v != 13 {
		t.Fatalf("d(5) = %d", v)
	}
	ev = d.Add(e).Eval(&x)
	if v, _ := ev.Uint64(); v != 13+26 {
		t.Fatalf("(d+e)(5) = %d", v)
	}
	prod := d.Mul(e)
	ev = prod.Eval(&x)
	if v, _ := ev.Uint64(); v != 13*26 {
		t.Fatalf("(d·e)(5) = %d", v)
	}
	if prod.Degree() != 3 {
		t.Fatalf("deg(d·e) = %d", prod.Degree())
	}
	s := elem(2)
	ev = d.Scale(&s).Eval(&x)
	if v, _ := ev.Uint64(); v != 26 {
		t.Fatalf("(2d)(5) = %d", v)
	}
	// Trimming: leading zeros removed.
	z := NewDense([]field.Element{elem(1), elem(0), elem(0)})
	if z.Degree() != 0 {
		t.Fatalf("trim failed, degree %d", z.Degree())
	}
	empty := &Dense{}
	if got := empty.Mul(d); got.Degree() != -1 {
		t.Fatalf("0·d degree = %d", got.Degree())
	}
}

func TestInterpolate(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := []field.Element{elem(0), elem(1), elem(2), elem(7)}
	ys := randVec(r, 4)
	p, err := Interpolate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degree() > 3 {
		t.Fatalf("degree %d", p.Degree())
	}
	for i := range xs {
		got := p.Eval(&xs[i])
		if !got.Equal(&ys[i]) {
			t.Fatalf("interpolant misses point %d", i)
		}
	}
	if _, err := Interpolate(xs, ys[:3]); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := Interpolate([]field.Element{elem(1), elem(1)}, ys[:2]); err == nil {
		t.Fatal("accepted duplicate abscissae")
	}
}

// TestInterpolateEvalAt checks the tabled, inversion-free form against
// the coefficient form for every node count a sum-check sends and
// beyond, up to and past the tables (lagrangeTabled), at every node, at
// the next two integers and at random points.
func TestInterpolateEvalAt(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, lagrangeTabled, lagrangeTabled + 1, lagrangeTabled + 4}
	for _, k := range ks {
		ys := randVec(r, k)
		xs := make([]field.Element, k)
		for i := range xs {
			xs[i] = elem(uint64(i))
		}
		p, err := Interpolate(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if got := InterpolateEvalAt(ys, &xs[i]); !got.Equal(&ys[i]) {
				t.Fatalf("k=%d: node %d mismatch", k, i)
			}
		}
		points := append(randVec(r, 10), elem(uint64(k)), elem(uint64(k+1)))
		for i := range points {
			got, want := InterpolateEvalAt(ys, &points[i]), p.Eval(&points[i])
			if !got.Equal(&want) {
				t.Fatalf("k=%d: point %d mismatch", k, i)
			}
		}
	}
}

// BenchmarkInterpolateEvalAt times the sum-check verifier's per-round
// interpolation at the degrees the provers send (3 values for product,
// 4 for triple); it must report 0 allocs/op.
func BenchmarkInterpolateEvalAt(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	for _, k := range []int{3, 4} {
		ys, x := randVec(r, k), randVec(r, 1)[0]
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				x = InterpolateEvalAt(ys, &x)
			}
		})
	}
}

func TestPropertyEvaluateLinearity(t *testing.T) {
	// Evaluate(a·p + b·q) == a·Evaluate(p) + b·Evaluate(q)
	rsrc := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, _ := NewMultilinear(randVec(r, 8))
		q, _ := NewMultilinear(randVec(r, 8))
		a, b := randVec(r, 1)[0], randVec(r, 1)[0]
		comb := make([]field.Element, 8)
		for i := range comb {
			var t1, t2 field.Element
			t1.Mul(&a, &p.Evals()[i])
			t2.Mul(&b, &q.Evals()[i])
			comb[i].Add(&t1, &t2)
		}
		c, _ := NewMultilinear(comb)
		pt := randVec(r, 3)
		ec, _ := c.Evaluate(pt)
		ep, _ := p.Evaluate(pt)
		eq, _ := q.Evaluate(pt)
		var want, t2 field.Element
		want.Mul(&a, &ep)
		t2.Mul(&b, &eq)
		want.Add(&want, &t2)
		return ec.Equal(&want)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rsrc}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
