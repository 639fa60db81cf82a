// Package curve implements the elliptic-curve group arithmetic needed by
// the MSM-based baseline ZKP systems (Libsnark/Bellperson in the paper's
// Table 2): a short-Weierstrass curve y² = x³ + 3 with Jacobian-coordinate
// point arithmetic and scalar multiplication.
//
// The curve is BN254's G1: y² = x³ + 3 over the base field F_p (package
// fp), whose group of rational points has prime order r — the scalar field
// used everywhere else in the library — so scalar arithmetic mod r is the
// honest exponent arithmetic. BatchZK's own protocol never touches a curve
// — that is the point of Table 1 — so this group exists purely to realize
// the expensive multi-scalar-multiplication workload the baselines are
// dominated by, with honest per-operation costs for the performance model.
package curve

import (
	"fmt"

	"batchzk/internal/field"
	"batchzk/internal/fp"
)

// B is the curve constant in y² = x³ + B.
var B = fp.NewElement(3)

// AffinePoint is a curve point in affine coordinates; Infinity marks the
// identity element.
type AffinePoint struct {
	X, Y     fp.Element
	Infinity bool
}

// JacobianPoint represents (X/Z², Y/Z³); Z = 0 encodes the identity.
type JacobianPoint struct {
	X, Y, Z fp.Element
}

// Generator returns the fixed base point (1, 2), which satisfies
// 2² = 1³ + 3.
func Generator() AffinePoint {
	return AffinePoint{X: fp.NewElement(1), Y: fp.NewElement(2)}
}

// Identity returns the affine identity element.
func Identity() AffinePoint { return AffinePoint{Infinity: true} }

// IsOnCurve reports whether p satisfies the curve equation.
func (p *AffinePoint) IsOnCurve() bool {
	if p.Infinity {
		return true
	}
	var lhs, rhs fp.Element
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &B)
	return lhs.Equal(&rhs)
}

// Equal reports whether two affine points are the same.
func (p *AffinePoint) Equal(q *AffinePoint) bool {
	if p.Infinity || q.Infinity {
		return p.Infinity == q.Infinity
	}
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// Neg returns -p.
func (p *AffinePoint) Neg() AffinePoint {
	if p.Infinity {
		return *p
	}
	var y fp.Element
	y.Neg(&p.Y)
	return AffinePoint{X: p.X, Y: y}
}

// ToJacobian lifts an affine point.
func (p *AffinePoint) ToJacobian() JacobianPoint {
	if p.Infinity {
		return JacobianPoint{} // Z = 0
	}
	return JacobianPoint{X: p.X, Y: p.Y, Z: fp.One()}
}

// IsIdentity reports whether j is the group identity.
func (j *JacobianPoint) IsIdentity() bool { return j.Z.IsZero() }

// ToAffine normalizes a Jacobian point.
func (j *JacobianPoint) ToAffine() AffinePoint {
	if j.IsIdentity() {
		return Identity()
	}
	var zInv, zInv2, zInv3 fp.Element
	zInv.Inverse(&j.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	var out AffinePoint
	out.X.Mul(&j.X, &zInv2)
	out.Y.Mul(&j.Y, &zInv3)
	return out
}

// Double sets j = 2p and returns j ("dbl-2007-bl"-style formulas for a=0).
func (j *JacobianPoint) Double(p *JacobianPoint) *JacobianPoint {
	if p.IsIdentity() || p.Y.IsZero() {
		*j = JacobianPoint{}
		return j
	}
	var a, b, c, d, e, f fp.Element
	a.Square(&p.X) // A = X²
	b.Square(&p.Y) // B = Y²
	c.Square(&b)   // C = B²
	// D = 2((X+B)² − A − C)
	d.Add(&p.X, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	// E = 3A, F = E²
	e.Double(&a)
	e.Add(&e, &a)
	f.Square(&e)

	var x3, y3, z3, t fp.Element
	x3.Double(&d)
	x3.Sub(&f, &x3) // X3 = F − 2D
	t.Sub(&d, &x3)
	y3.Mul(&e, &t)
	var c8 fp.Element
	c8.Double(&c)
	c8.Double(&c8)
	c8.Double(&c8)
	y3.Sub(&y3, &c8) // Y3 = E(D−X3) − 8C
	z3.Mul(&p.Y, &p.Z)
	z3.Double(&z3) // Z3 = 2YZ

	j.X, j.Y, j.Z = x3, y3, z3
	return j
}

// Add sets j = p + q and returns j ("add-2007-bl" formulas).
func (j *JacobianPoint) Add(p, q *JacobianPoint) *JacobianPoint {
	if p.IsIdentity() {
		*j = *q
		return j
	}
	if q.IsIdentity() {
		*j = *p
		return j
	}
	var z1z1, z2z2, u1, u2, s1, s2 fp.Element
	z1z1.Square(&p.Z)
	z2z2.Square(&q.Z)
	u1.Mul(&p.X, &z2z2)
	u2.Mul(&q.X, &z1z1)
	s1.Mul(&p.Y, &q.Z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&q.Y, &p.Z)
	s2.Mul(&s2, &z1z1)

	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			return j.Double(p)
		}
		*j = JacobianPoint{} // p = −q
		return j
	}

	var h, i, jj, r, v fp.Element
	h.Sub(&u2, &u1) // H
	i.Double(&h)
	i.Square(&i) // I = (2H)²
	jj.Mul(&h, &i)
	r.Sub(&s2, &s1)
	r.Double(&r) // r = 2(S2−S1)
	v.Mul(&u1, &i)

	var x3, y3, z3, t fp.Element
	x3.Square(&r)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t) // X3 = r² − J − 2V
	t.Sub(&v, &x3)
	y3.Mul(&r, &t)
	t.Mul(&s1, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t) // Y3 = r(V−X3) − 2 S1 J
	z3.Add(&p.Z, &q.Z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h) // Z3 = ((Z1+Z2)² − Z1Z1 − Z2Z2)·H

	j.X, j.Y, j.Z = x3, y3, z3
	return j
}

// AddMixed sets j = p + q for an affine q using the dedicated
// "madd-2007-bl" formulas (7M + 4S versus the 11M + 5S a full Jacobian add
// costs after lifting q). This is the form the Pippenger running-sum sweep
// uses, so the savings multiply by 2^c buckets per window.
func (j *JacobianPoint) AddMixed(p *JacobianPoint, q *AffinePoint) *JacobianPoint {
	if q.Infinity {
		*j = *p
		return j
	}
	if p.IsIdentity() {
		*j = q.ToJacobian()
		return j
	}
	var z1z1, u2, s2 fp.Element
	z1z1.Square(&p.Z)
	u2.Mul(&q.X, &z1z1)
	s2.Mul(&q.Y, &p.Z)
	s2.Mul(&s2, &z1z1)

	if u2.Equal(&p.X) {
		if s2.Equal(&p.Y) {
			return j.Double(p)
		}
		*j = JacobianPoint{} // p = −q
		return j
	}

	var h, hh, i, jj, r, v fp.Element
	h.Sub(&u2, &p.X) // H = U2 − X1
	hh.Square(&h)
	i.Double(&hh)
	i.Double(&i)   // I = 4·HH
	jj.Mul(&h, &i) // J = H·I
	r.Sub(&s2, &p.Y)
	r.Double(&r)    // r = 2(S2 − Y1)
	v.Mul(&p.X, &i) // V = X1·I

	var x3, y3, z3, t fp.Element
	x3.Square(&r)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t) // X3 = r² − J − 2V
	t.Sub(&v, &x3)
	y3.Mul(&r, &t)
	t.Mul(&p.Y, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t) // Y3 = r(V − X3) − 2·Y1·J
	z3.Add(&p.Z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh) // Z3 = (Z1+H)² − Z1Z1 − HH

	j.X, j.Y, j.Z = x3, y3, z3
	return j
}

// AffineAddKind classifies an affine p+q for the batch-affine bucket
// accumulation: the two productive cases share one field inversion across
// the whole batch, the rest resolve without one.
type AffineAddKind uint8

const (
	// AffineAddGeneric is the x1 ≠ x2 chord case; denominator x2 − x1.
	AffineAddGeneric AffineAddKind = iota
	// AffineAddDouble is the tangent case p == q, y ≠ 0; denominator 2y.
	AffineAddDouble
	// AffineAddInfinity covers p = −q (and both-infinity): sum is identity.
	AffineAddInfinity
	// AffineAddP means q is the identity: the sum is p unchanged.
	AffineAddP
	// AffineAddQ means p is the identity: the sum is q unchanged.
	AffineAddQ
)

// ClassifyAffineAdd returns the addition case for p+q and, for the two
// cases that need a division, writes the denominator into denom so the
// caller can fold it into a shared batch inversion.
func ClassifyAffineAdd(p, q *AffinePoint, denom *fp.Element) AffineAddKind {
	if q.Infinity {
		if p.Infinity {
			return AffineAddInfinity
		}
		return AffineAddP
	}
	if p.Infinity {
		return AffineAddQ
	}
	if !p.X.Equal(&q.X) {
		denom.Sub(&q.X, &p.X)
		return AffineAddGeneric
	}
	if p.Y.Equal(&q.Y) && !p.Y.IsZero() {
		denom.Double(&p.Y)
		return AffineAddDouble
	}
	return AffineAddInfinity // p = −q, or degenerate y = 0
}

// CompleteAffineAdd writes p+q into out, given the classification and the
// batch-inverted denominator dInv (only read for Generic/Double). out may
// alias p or q.
func CompleteAffineAdd(out, p, q *AffinePoint, kind AffineAddKind, dInv *fp.Element) {
	switch kind {
	case AffineAddP:
		*out = *p
		return
	case AffineAddQ:
		*out = *q
		return
	case AffineAddInfinity:
		*out = AffinePoint{Infinity: true}
		return
	}
	var lambda fp.Element
	if kind == AffineAddGeneric {
		lambda.Sub(&q.Y, &p.Y)
	} else {
		lambda.Square(&p.X)
		var three fp.Element
		three.Double(&lambda)
		lambda.Add(&lambda, &three) // 3x²
	}
	lambda.Mul(&lambda, dInv)
	var x3, y3 fp.Element
	x3.Square(&lambda)
	x3.Sub(&x3, &p.X)
	x3.Sub(&x3, &q.X)
	y3.Sub(&p.X, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &p.Y)
	out.X, out.Y, out.Infinity = x3, y3, false
}

// ScalarMul sets j = k·p by double-and-add over the canonical bits of the
// scalar k, which lives in the scalar field F_r (the group's order).
func (j *JacobianPoint) ScalarMul(p *AffinePoint, k *field.Element) *JacobianPoint {
	bytes := k.ToBytes()
	acc := JacobianPoint{}
	pj := p.ToJacobian()
	for _, b := range bytes[:] {
		for bit := 7; bit >= 0; bit-- {
			acc.Double(&acc)
			if b>>uint(bit)&1 == 1 {
				acc.Add(&acc, &pj)
			}
		}
	}
	*j = acc
	return j
}

// RandPoint returns a pseudo-random curve point k·G for a random scalar k.
func RandPoint() AffinePoint {
	var k field.Element
	k.Rand()
	g := Generator()
	var j JacobianPoint
	j.ScalarMul(&g, &k)
	return j.ToAffine()
}

// CheckSubgroupSmoke sanity-checks the basic group laws on small
// multiples; used in tests and at calibration time.
func CheckSubgroupSmoke() error {
	g := Generator()
	if !g.IsOnCurve() {
		return fmt.Errorf("curve: generator off curve")
	}
	gj := g.ToJacobian()
	var two, three, sum JacobianPoint
	two.Double(&gj)
	three.Add(&two, &gj)
	sum.Add(&gj, &gj)
	a2, s := two.ToAffine(), sum.ToAffine()
	if !a2.Equal(&s) {
		return fmt.Errorf("curve: G+G != 2G")
	}
	a3 := three.ToAffine()
	if !a3.IsOnCurve() || !a2.IsOnCurve() {
		return fmt.Errorf("curve: small multiples off curve")
	}
	return nil
}
