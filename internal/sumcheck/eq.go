package sumcheck

import (
	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// The eq-product prover: Σ_b eq(τ, b)·f(b)·g(b), the Hadamard gate
// check's shape, with the eq factor split off (Gruen, ePrint 2024/108).
// Round i binds variable c = n−1−i, and its round polynomial factors as
//
//	s_i(X) = C_i · eq(τ_c, X) · q_i(X),
//	q_i(X) = Σ_{b < 2^c} eq(τ[:c], b) · f_i(b, X) · g_i(b, X),
//
// where C_i = Π_{j > c} eq(τ_j, r_j) is the eq factor of the variables
// already bound and f_i, g_i are the tables folded so far. q_i has degree
// 2, so the terms sum only q(0) and q(2) per entry, each weighted by
// eq(τ[:c], b). That weight is held as two half tables (Dao–Thaler,
// ePrint 2024/1210): lo over b's low bits and hi over the rest, so an
// entry multiplies by lo and a run of entries sharing hi multiplies by it
// once. q(1) follows from the previous round's claim, and q(3) from
// q(0..2) by extrapolation, so the messages C·eq(τ_c, x)·q(x) at x = 0..3
// are exactly the triple prover's over the table eq(τ, ·), with no eq
// table stored or folded.

// eqProduct is the eq-product prover's state between rounds: what the
// terms of the current round read and what its message needs.
type eqProduct struct {
	tau, tauInv []field.Element // τ, and τ_j⁻¹ (0 where τ_j = 0)

	c      int             // the variable the current round binds
	lo, hi []field.Element // eq(τ[:c], ·) = lo[b & mask]·hi[b >> k], rebuilt in place each round
	k      uint
	mask   int
	direct bool // the terms sum q(1) too: round 0, or τ_c = 0

	scale  field.Element // C_i
	claimQ field.Element // q_{i−1}(r_{i−1}): (1−τ_c)·q(0) + τ_c·q(1)
}

// ProveEqProduct runs the degree-3 sum-check prover for
// Σ_b eq(τ, b)·f(b)·g(b) over the two n-variate tables of src (n =
// len(τ)). Its proof, point and claim are ProveTriple's over the tables
// (eq(τ, ·), f, g), and VerifyTriple checks it; the finals are
// [f(pt), g(pt)], since the verifier evaluates eq(τ, pt) itself.
func ProveEqProduct(tau []field.Element, src Source, tr *transcript.Transcript) (*TripleProof, []field.Element, field.Element, [2]field.Element) {
	n := len(tau)
	next := fiatShamir(tr, "sumcheck3", n)
	if n == 0 { // eq of no variables is 1: the sum is f·g
		msgs, point, claim, finals := proveFrom(0, 2, 4, src, productTerms, next)
		return tripleProof(msgs), point, claim, [2]field.Element(finals)
	}
	e := &eqProduct{tau: tau, tauInv: make([]field.Element, n), scale: field.One()}
	field.BatchInverse(e.tauInv, tau)
	k := (n - 1) / 2 // the first round's split; later rounds' tables are no longer
	e.lo, e.hi = make([]field.Element, 1<<k), make([]field.Element, 1<<(n-1-k))
	e.enter(n-1, true)
	msgs, point, claim, finals := proveFrom(n, 2, 4, src, e.terms, e.challenger(next))
	return tripleProof(msgs), point, claim, [2]field.Element(finals)
}

// enter sets the state up for the round that binds variable c.
func (e *eqProduct) enter(c int, first bool) {
	k := c / 2
	e.c, e.k, e.mask = c, uint(k), 1<<k-1
	e.lo = poly.EqTableInto(e.lo, e.tau[:k])
	e.hi = poly.EqTableInto(e.hi, e.tau[k:c])
	e.direct = first || e.tau[c].IsZero()
}

// terms adds q(0), q(1) (if direct) and q(2) of the current round over a
// block of entries off, off+1, … of f's and g's halves, into acc[0..2]:
// per entry, f·g at x = 0 and x = 2 (each table high + (high − low)),
// weighted by lo; per run of entries sharing hi, one multiplication by
// it for each sum.
func (e *eqProduct) terms(off int, low, high [][]field.Element, acc []field.Element) {
	f0, g0, f1, g1 := low[0], low[1], high[0], high[1]
	var q0, q1, q2, in0, in1, in2, t, f2, g2 field.Element
	for j := 0; j < len(f0); {
		h := (off + j) >> e.k
		end := min(len(f0), (h+1)<<e.k-off)
		in0, in1, in2 = field.Element{}, field.Element{}, field.Element{}
		for ; j < end; j++ {
			w := &e.lo[(off+j)&e.mask]
			t.Mul(&f0[j], &g0[j])
			t.Mul(&t, w)
			in0.Add(&in0, &t)
			f2.Sub(&f1[j], &f0[j])
			f2.Add(&f2, &f1[j])
			g2.Sub(&g1[j], &g0[j])
			g2.Add(&g2, &g1[j])
			t.Mul(&f2, &g2)
			t.Mul(&t, w)
			in2.Add(&in2, &t)
			if e.direct {
				t.Mul(&f1[j], &g1[j])
				t.Mul(&t, w)
				in1.Add(&in1, &t)
			}
		}
		t.Mul(&e.hi[h], &in0)
		q0.Add(&q0, &t)
		t.Mul(&e.hi[h], &in2)
		q2.Add(&q2, &t)
		if e.direct {
			t.Mul(&e.hi[h], &in1)
			q1.Add(&q1, &t)
		}
	}
	acc[0].Add(&acc[0], &q0)
	acc[1].Add(&acc[1], &q1)
	acc[2].Add(&acc[2], &q2)
}

// challenger wraps next: it turns each round's summed q values into the
// message C·eq(τ_c, x)·q(x), x = 0..3, in place, hands that to next, and
// moves the state to the following round with next's challenge.
func (e *eqProduct) challenger(next challenger) challenger {
	one, three := field.One(), field.NewElement(3)
	return func(i int, msg []field.Element) field.Element {
		var q [4]field.Element
		copy(q[:3], msg)
		tc := &e.tau[e.c]
		var omt, d, t field.Element // 1 − τ_c; eq(τ_c, X) = (1 − τ_c) + X·d
		omt.Sub(&one, tc)
		d.Sub(tc, &omt)
		if !e.direct { // q(1) = (claimQ − (1 − τ_c)·q(0)) / τ_c
			t.Mul(&omt, &q[0])
			q[1].Sub(&e.claimQ, &t)
			q[1].Mul(&q[1], &e.tauInv[e.c])
		}
		// q has degree 2: q(3) = q(0) − 3·q(1) + 3·q(2).
		t.Sub(&q[2], &q[1])
		t.Mul(&t, &three)
		q[3].Add(&q[0], &t)
		eqX := omt
		for x := range msg {
			msg[x].Mul(&e.scale, &eqX)
			msg[x].Mul(&msg[x], &q[x])
			eqX.Add(&eqX, &d)
		}
		r := next(i, msg)
		e.claimQ = poly.InterpolateEvalAt(q[:3], &r)
		t.Mul(&d, &r)
		t.Add(&t, &omt)
		e.scale.Mul(&e.scale, &t)
		if e.c > 0 {
			e.enter(e.c-1, false)
		}
		return r
	}
}
