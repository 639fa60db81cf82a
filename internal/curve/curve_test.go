package curve

import (
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/fp"
)

// AddMixedGeneric is the pre-optimization mixed add — lift q to Jacobian
// and run the full add — kept as the oracle AddMixed is tested against.
func AddMixedGeneric(j, p *JacobianPoint, q *AffinePoint) *JacobianPoint {
	if q.Infinity {
		*j = *p
		return j
	}
	qj := q.ToJacobian()
	return j.Add(p, &qj)
}

func TestGeneratorOnCurve(t *testing.T) {
	g := Generator()
	if !g.IsOnCurve() {
		t.Fatal("generator not on curve")
	}
	if err := CheckSubgroupSmoke(); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityLaws(t *testing.T) {
	gen := Generator()
	g := gen.ToJacobian()
	id := JacobianPoint{}
	var r JacobianPoint
	r.Add(&g, &id)
	a := r.ToAffine()
	gg := Generator()
	if !a.Equal(&gg) {
		t.Fatal("G + 0 != G")
	}
	r.Add(&id, &g)
	a = r.ToAffine()
	if !a.Equal(&gg) {
		t.Fatal("0 + G != G")
	}
	if !id.IsIdentity() {
		t.Fatal("zero Jacobian point should be identity")
	}
	aff := id.ToAffine()
	if !aff.Infinity {
		t.Fatal("identity should normalize to infinity")
	}
}

func TestNegation(t *testing.T) {
	g := Generator()
	ng := g.Neg()
	if !ng.IsOnCurve() {
		t.Fatal("-G off curve")
	}
	gj, ngj := g.ToJacobian(), ng.ToJacobian()
	var sum JacobianPoint
	sum.Add(&gj, &ngj)
	if !sum.IsIdentity() {
		t.Fatal("G + (-G) != 0")
	}
	id := Identity()
	nid := id.Neg()
	if !nid.Infinity {
		t.Fatal("-0 != 0")
	}
}

func TestAddCommutesAndAssociates(t *testing.T) {
	p := RandPoint()
	q := RandPoint()
	s := RandPoint()
	pj, qj, sj := p.ToJacobian(), q.ToJacobian(), s.ToJacobian()
	var a, b JacobianPoint
	a.Add(&pj, &qj)
	b.Add(&qj, &pj)
	aa, ba := a.ToAffine(), b.ToAffine()
	if !aa.Equal(&ba) {
		t.Fatal("addition not commutative")
	}
	var l, r JacobianPoint
	l.Add(&pj, &qj)
	l.Add(&l, &sj)
	r.Add(&qj, &sj)
	r.Add(&pj, &r)
	la, ra := l.ToAffine(), r.ToAffine()
	if !la.Equal(&ra) {
		t.Fatal("addition not associative")
	}
	if !la.IsOnCurve() {
		t.Fatal("sum off curve")
	}
}

func TestDoubleMatchesAdd(t *testing.T) {
	p := RandPoint()
	pj := p.ToJacobian()
	var d, s JacobianPoint
	d.Double(&pj)
	s.Add(&pj, &pj)
	da, sa := d.ToAffine(), s.ToAffine()
	if !da.Equal(&sa) {
		t.Fatal("2P != P+P")
	}
}

func TestScalarMulSmallMultiples(t *testing.T) {
	g := Generator()
	gj := g.ToJacobian()
	// Accumulate G, 2G, 3G, ... and compare against ScalarMul.
	acc := JacobianPoint{}
	for k := uint64(1); k <= 10; k++ {
		acc.Add(&acc, &gj)
		kf := field.NewElement(k)
		var sm JacobianPoint
		sm.ScalarMul(&g, &kf)
		a1, a2 := acc.ToAffine(), sm.ToAffine()
		if !a1.Equal(&a2) {
			t.Fatalf("k=%d: repeated add != scalar mul", k)
		}
	}
}

func TestScalarMulDistributes(t *testing.T) {
	// (a+b)·G == a·G + b·G
	var a, b, sum field.Element
	a.Rand()
	b.Rand()
	sum.Add(&a, &b)
	g := Generator()
	var ag, bg, sg, absum JacobianPoint
	ag.ScalarMul(&g, &a)
	bg.ScalarMul(&g, &b)
	sg.ScalarMul(&g, &sum)
	absum.Add(&ag, &bg)
	l, r := sg.ToAffine(), absum.ToAffine()
	if !l.Equal(&r) {
		t.Fatal("scalar multiplication does not distribute")
	}
}

func TestScalarMulZero(t *testing.T) {
	g := Generator()
	z := field.Zero()
	var r JacobianPoint
	r.ScalarMul(&g, &z)
	if !r.IsIdentity() {
		t.Fatal("0·G != identity")
	}
}

func TestAddMixed(t *testing.T) {
	p := RandPoint()
	q := RandPoint()
	pj := p.ToJacobian()
	var mixed, full JacobianPoint
	mixed.AddMixed(&pj, &q)
	qj := q.ToJacobian()
	full.Add(&pj, &qj)
	m, f := mixed.ToAffine(), full.ToAffine()
	if !m.Equal(&f) {
		t.Fatal("mixed addition mismatch")
	}
	id := Identity()
	mixed.AddMixed(&pj, &id)
	m = mixed.ToAffine()
	if !m.Equal(&p) {
		t.Fatal("P + 0 (mixed) != P")
	}
}

// TestAddMixedDifferential pins the dedicated madd formulas against the
// lift-and-add reference across the edge cases the unrolled path branches
// on: generic, doubling (q = p), cancellation (q = −p), and identities.
func TestAddMixedDifferential(t *testing.T) {
	p := RandPoint()
	q := RandPoint()
	pj := p.ToJacobian()
	// Give p a non-trivial Z so the Z1Z1 terms are exercised.
	pj.Double(&pj)
	pAff := pj.ToAffine()

	cases := []struct {
		name string
		base JacobianPoint
		add  AffinePoint
	}{
		{"generic", pj, q},
		{"double", pj, pAff},
		{"cancel", pj, pAff.Neg()},
		{"q-infinity", pj, Identity()},
		{"p-identity", JacobianPoint{}, q},
		{"both-identity", JacobianPoint{}, Identity()},
	}
	for _, c := range cases {
		var got, want JacobianPoint
		got.AddMixed(&c.base, &c.add)
		AddMixedGeneric(&want, &c.base, &c.add)
		g, w := got.ToAffine(), want.ToAffine()
		if !g.Equal(&w) {
			t.Fatalf("%s: AddMixed != AddMixedGeneric", c.name)
		}
		if !g.IsOnCurve() {
			t.Fatalf("%s: result off curve", c.name)
		}
	}
}

// TestAffineAddHelpers drives the classify/complete pair that the
// batch-affine MSM buckets are built on, checking every case against the
// Jacobian ground truth.
func TestAffineAddHelpers(t *testing.T) {
	p := RandPoint()
	q := RandPoint()
	cases := []struct {
		name string
		a, b AffinePoint
		want AffineAddKind
	}{
		{"generic", p, q, AffineAddGeneric},
		{"double", p, p, AffineAddDouble},
		{"cancel", p, p.Neg(), AffineAddInfinity},
		{"q-inf", p, Identity(), AffineAddP},
		{"p-inf", Identity(), q, AffineAddQ},
		{"both-inf", Identity(), Identity(), AffineAddInfinity},
	}
	for _, c := range cases {
		var denom, dInv fp.Element
		kind := ClassifyAffineAdd(&c.a, &c.b, &denom)
		if kind != c.want {
			t.Fatalf("%s: kind = %d, want %d", c.name, kind, c.want)
		}
		if kind == AffineAddGeneric || kind == AffineAddDouble {
			dInv.Inverse(&denom)
		}
		var got AffinePoint
		CompleteAffineAdd(&got, &c.a, &c.b, kind, &dInv)

		aj := c.a.ToJacobian()
		var sum JacobianPoint
		sum.AddMixed(&aj, &c.b)
		want := sum.ToAffine()
		if !got.Equal(&want) {
			t.Fatalf("%s: affine add disagrees with Jacobian add", c.name)
		}
		if !got.IsOnCurve() {
			t.Fatalf("%s: result off curve", c.name)
		}
	}

	// Aliasing: out may be the left operand (the bucket accumulate shape).
	var denom, dInv fp.Element
	kind := ClassifyAffineAdd(&p, &q, &denom)
	dInv.Inverse(&denom)
	acc := p
	CompleteAffineAdd(&acc, &acc, &q, kind, &dInv)
	pj := p.ToJacobian()
	var sum JacobianPoint
	sum.AddMixed(&pj, &q)
	want := sum.ToAffine()
	if !acc.Equal(&want) {
		t.Fatal("aliased CompleteAffineAdd disagrees")
	}
}

func BenchmarkAddMixed(b *testing.B) {
	p := RandPoint()
	q := RandPoint()
	pj := p.ToJacobian()
	pj.Double(&pj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pj.AddMixed(&pj, &q)
	}
}

func BenchmarkAddMixedGeneric(b *testing.B) {
	p := RandPoint()
	q := RandPoint()
	pj := p.ToJacobian()
	pj.Double(&pj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddMixedGeneric(&pj, &pj, &q)
	}
}

func TestRandPointOnCurve(t *testing.T) {
	for i := 0; i < 4; i++ {
		p := RandPoint()
		if !p.IsOnCurve() {
			t.Fatal("RandPoint off curve")
		}
	}
}
