// Package sumcheck implements the sum-check protocol (§2.3 of the BatchZK
// paper), the module the paper's evaluation identifies as the dominant cost
// of modern ZKP protocols.
//
// One kernel runs every prover: over k tables of 2^n evaluations, round i
// of Algorithm 1 (Vu et al. [55]) sends the round polynomial's values at
// 0, 1, …, d, then folds each table, t[b] ← (1−r_i)·t[b] + r_i·t[b+2^{n-i}],
// with the round challenge r_i. A variant is only a term callback that adds
// a block of entries to the round values, plus its transcript labels:
// plain Σ t (Prove; degree 1, sent as the half-table sums (π_i1, π_i2)),
// product Σ f·g (ProveProduct; the PCS evaluation and linear checks),
// triple Σ e·f·g (ProveTriple), eq-product Σ eq(τ,·)·f·g (ProveEqProduct;
// the Hadamard gate check, sent as the triple's messages) and affine
// Σ a·v + c (ProveAffineProduct; one phase of a GKR layer). Per entry of
// the half table, a round costs 4 field multiplications in the
// eq-product terms (6 in its first round), 8 in the triple terms, 3 in
// the product and affine terms and none in the plain ones, plus one per
// table for the fold. The eq-product folds two tables where the triple
// folds three: its eq factor is never a table (see eqProduct).
//
// The kernel takes each round's challenge from a callback handed the
// round's message: a Fiat–Shamir transcript, or caller-supplied randomness
// for ProveWithChallenges (the form the pipelined GPU module uses, which
// derives randomness from Merkle roots, §4); Round is one round alone, on
// caller-owned buffers, the step the façade's batch of plain sum-checks
// loops over. One verifier loop checks every variant and
// rejects a proof whose round count is not the one the caller expects.
package sumcheck

import (
	"errors"
	"fmt"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// ErrReject is returned when a proof fails verification.
var ErrReject = errors.New("sumcheck: proof rejected")

// RoundPair is the message of one sum-check round for a multilinear
// polynomial: the two half-table sums (π_i1, π_i2) of Algorithm 1.
type RoundPair struct {
	P1, P2 field.Element
}

// Proof is a complete sum-check proof: one RoundPair per variable.
type Proof struct {
	Rounds []RoundPair
}

// NumRounds returns the number of rounds (= number of variables).
func (p *Proof) NumRounds() int { return len(p.Rounds) }

// ProductRound is the message of one round of a degree-2 sum-check: the
// round polynomial's evaluations at 0, 1, 2.
type ProductRound struct {
	At0, At1, At2 field.Element
}

// ProductProof proves H = Σ_b f(b)·g(b) for multilinear f, g (or, from
// ProveAffineProduct, H = Σ_b a(b)·v(b) + c(b)).
type ProductProof struct {
	Rounds []ProductRound
}

// TripleRound is the message of one round of the degree-3 sum-check: the
// round polynomial's evaluations at 0, 1, 2, 3.
type TripleRound struct {
	At [4]field.Element
}

// TripleProof proves H = Σ_b e(b)·f(b)·g(b) for multilinear e, f, g: the
// Hadamard gate check's shape (eq(τ, ·) times the gate-input tables).
type TripleProof struct {
	Rounds []TripleRound
}

// values lays the proof's rounds end to end, as verify reads them.
func (p *Proof) values() (out []field.Element) {
	for i := 0; p != nil && i < len(p.Rounds); i++ {
		out = append(out, p.Rounds[i].P1, p.Rounds[i].P2)
	}
	return out
}

func (p *ProductProof) values() (out []field.Element) {
	for i := 0; p != nil && i < len(p.Rounds); i++ {
		out = append(out, p.Rounds[i].At0, p.Rounds[i].At1, p.Rounds[i].At2)
	}
	return out
}

func (p *TripleProof) values() (out []field.Element) {
	for i := 0; p != nil && i < len(p.Rounds); i++ {
		out = append(out, p.Rounds[i].At[:]...)
	}
	return out
}

func productProof(msgs []field.Element) *ProductProof {
	p := &ProductProof{Rounds: make([]ProductRound, len(msgs)/3)}
	for i := range p.Rounds {
		p.Rounds[i] = ProductRound{At0: msgs[3*i], At1: msgs[3*i+1], At2: msgs[3*i+2]}
	}
	return p
}

// plainTerms adds the two half-table sums.
func plainTerms(_ int, low, high [][]field.Element, acc []field.Element) {
	var s1, s2 field.Element
	for b := range low[0] {
		s1.Add(&s1, &low[0][b])
		s2.Add(&s2, &high[0][b])
	}
	acc[0].Add(&acc[0], &s1)
	acc[1].Add(&acc[1], &s2)
}

// The terms below skip the multiplications the Lerp form spent on the
// points x = 0 and 1, where a table is its low or high half, and reach
// each later point x+1 as the value at x plus (high − low). That puts
// them at the floor of one multiplication per factor per point: 3 per
// entry for the product (and affine) terms and 8 for the triple terms,
// against 5 and 20 for a Lerp at every point.

// productTerms adds the round polynomial's values at 0, 1, 2 over aligned
// entries of the first two tables' halves: f·g at each half and at
// x = 2, where each table is high + (high − low).
func productTerms(_ int, low, high [][]field.Element, acc []field.Element) {
	f0, g0, f1, g1 := low[0], low[1], high[0], high[1]
	var at0, at1, at2 field.Element
	var t, f2, g2 field.Element
	for b := range f0 {
		t.Mul(&f0[b], &g0[b])
		at0.Add(&at0, &t)
		t.Mul(&f1[b], &g1[b])
		at1.Add(&at1, &t)
		f2.Sub(&f1[b], &f0[b])
		f2.Add(&f2, &f1[b])
		g2.Sub(&g1[b], &g0[b])
		g2.Add(&g2, &g1[b])
		t.Mul(&f2, &g2)
		at2.Add(&at2, &t)
	}
	acc[0].Add(&acc[0], &at0)
	acc[1].Add(&acc[1], &at1)
	acc[2].Add(&acc[2], &at2)
}

// affineTerms adds the round polynomial of a·v + c at 0, 1, 2: the
// product's terms for a·v, plus c, which is linear, so its value at 2
// extrapolates from its two half sums.
func affineTerms(off int, low, high [][]field.Element, acc []field.Element) {
	productTerms(off, low, high, acc)
	var c [3]field.Element
	plainTerms(off, low[2:], high[2:], c[:])
	c[2].Sub(&c[1], &c[0])
	c[2].Add(&c[2], &c[1])
	for x := range c {
		acc[x].Add(&acc[x], &c[x])
	}
}

// tripleTerms adds, for x = 0..3, Σ e_x·f_x·g_x over aligned entries of
// the three tables' halves, where t_x = lerp(x, low, high): the halves
// themselves at x = 0 and 1, then one more (high − low) per step.
func tripleTerms(_ int, low, high [][]field.Element, acc []field.Element) {
	e0, f0, g0 := low[0], low[1], low[2]
	e1, f1, g1 := high[0], high[1], high[2]
	var at [4]field.Element
	var ex, fx, gx, de, df, dg, t field.Element
	for b := range e0 {
		t.Mul(&e0[b], &f0[b])
		t.Mul(&t, &g0[b])
		at[0].Add(&at[0], &t)
		t.Mul(&e1[b], &f1[b])
		t.Mul(&t, &g1[b])
		at[1].Add(&at[1], &t)
		de.Sub(&e1[b], &e0[b])
		df.Sub(&f1[b], &f0[b])
		dg.Sub(&g1[b], &g0[b])
		ex, fx, gx = e1[b], f1[b], g1[b]
		for x := 2; x < 4; x++ {
			ex.Add(&ex, &de)
			fx.Add(&fx, &df)
			gx.Add(&gx, &dg)
			t.Mul(&ex, &fx)
			t.Mul(&t, &gx)
			at[x].Add(&at[x], &t)
		}
	}
	for x := range at {
		acc[x].Add(&acc[x], &at[x])
	}
}

// Prove runs the non-interactive sum-check prover for the multilinear
// polynomial m, drawing challenges from tr. It returns the proof, the
// challenge point in x_1..x_n order (ready for Multilinear.Evaluate), and
// the claimed hypercube sum. Algorithm 1 fixes the *highest-order*
// variable first, so the challenge drawn in round i binds x_{n+1-i}; the
// returned point is reversed into ascending variable order.
func Prove(m *poly.Multilinear, tr *transcript.Transcript) (*Proof, []field.Element, field.Element) {
	n := m.NumVars()
	proof, point, claim, _ := provePlain(m, fiatShamir(tr, "sumcheck", n, "sumcheck/p1", "sumcheck/p2"))
	return proof, point, claim
}

// ProveWithChallenges runs the interactive prover core of Algorithm 1 with
// caller-supplied round randomness (round order: rs[0] binds x_n). It
// returns the proof and the final folded value p(point).
func ProveWithChallenges(m *poly.Multilinear, rs []field.Element) (*Proof, field.Element, error) {
	if len(rs) != m.NumVars() {
		return nil, field.Element{}, fmt.Errorf("sumcheck: %d challenges for %d variables", len(rs), m.NumVars())
	}
	proof, _, _, final := provePlain(m, fixed(rs))
	return proof, final, nil
}

// provePlain runs the plain variant over m's table.
func provePlain(m *poly.Multilinear, next challenger) (*Proof, []field.Element, field.Element, field.Element) {
	msgs, point, claim, finals := proveFrom(m.NumVars(), 1, 2, TableSource(m.Evals()), plainTerms, next)
	proof := &Proof{Rounds: make([]RoundPair, len(msgs)/2)}
	for i := range proof.Rounds {
		proof.Rounds[i] = RoundPair{P1: msgs[2*i], P2: msgs[2*i+1]}
	}
	return proof, point, claim, finals[0]
}

// Verify checks an n-round sum-check proof against a claimed sum, deriving
// the challenges from an identically initialized transcript. It returns
// the challenge point (x_1..x_n order) and the final claimed evaluation
// p(point), which the caller must check against the polynomial.
func Verify(n int, claim field.Element, proof *Proof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	return verify(claim, 1, n, proof.values(), fiatShamir(tr, "sumcheck", n, "sumcheck/p1", "sumcheck/p2"))
}

// VerifyChallenges replays the verifier checks of a proof produced by
// ProveWithChallenges under known randomness, one challenge per round,
// returning the final claimed evaluation.
func VerifyChallenges(claim field.Element, proof *Proof, rs []field.Element) (field.Element, error) {
	_, final, err := verify(claim, 1, len(rs), proof.values(), fixed(rs))
	return final, err
}

// ProveProduct runs the degree-2 sum-check prover for Σ f·g. It returns
// the proof, the challenge point (x_1..x_n order), the claimed sum, and the
// final evaluations f(point), g(point) the verifier checks externally.
func ProveProduct(f, g *poly.Multilinear, tr *transcript.Transcript) (*ProductProof, []field.Element, field.Element, [2]field.Element, error) {
	n := f.NumVars()
	if g.NumVars() != n {
		return nil, nil, field.Element{}, [2]field.Element{}, fmt.Errorf("sumcheck: arity mismatch %d vs %d", n, g.NumVars())
	}
	proof, point, claim, finals := ProveProductFrom(n, TableSource(f.Evals(), g.Evals()), tr)
	return proof, point, claim, finals, nil
}

// ProveProductFrom is ProveProduct over two n-variate tables supplied by
// src (see Source), which the first rounds read instead of stored tables.
func ProveProductFrom(n int, src Source, tr *transcript.Transcript) (*ProductProof, []field.Element, field.Element, [2]field.Element) {
	msgs, point, claim, finals := proveFrom(n, 2, 3, src, productTerms, fiatShamir(tr, "sumcheck2", n))
	return productProof(msgs), point, claim, [2]field.Element(finals)
}

// VerifyProduct checks an n-round product sum-check proof against a
// claimed sum, returning the challenge point and the final claimed product
// value f(point)·g(point) for external checking.
func VerifyProduct(n int, claim field.Element, proof *ProductProof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	return verify(claim, 2, n, proof.values(), fiatShamir(tr, "sumcheck2", n))
}

// ProveAffineProduct runs the prover for Σ a·v + c, one phase of a GKR
// layer: a carries the multiplicative wiring weights, v the next layer's
// values, c the additive wiring terms. GKR chains claims across phases, so
// the claim is an input, checked against round 0's message (on a mismatch
// tr has absorbed the rounds). It returns the proof, the challenge point
// (x_1..x_n order), and the final values [a(pt), v(pt), c(pt)].
func ProveAffineProduct(a, v, c *poly.Multilinear, claim field.Element, tr *transcript.Transcript) (*ProductProof, []field.Element, [3]field.Element, error) {
	n := a.NumVars()
	if v.NumVars() != n || c.NumVars() != n {
		return nil, nil, [3]field.Element{}, fmt.Errorf("sumcheck: affine arity mismatch %d/%d/%d", n, v.NumVars(), c.NumVars())
	}
	msgs, point, sum, finals := proveFrom(n, 3, 3, TableSource(a.Evals(), v.Evals(), c.Evals()), affineTerms, fiatShamir(tr, "sumcheckA", n))
	if !sum.Equal(&claim) {
		return nil, nil, [3]field.Element{}, fmt.Errorf("sumcheck: affine claim does not match the tables")
	}
	return productProof(msgs), point, [3]field.Element(finals), nil
}

// VerifyAffineProduct checks an n-round affine-product proof against a
// claim and returns the challenge point plus the final claimed value
// a(pt)·v(pt) + c(pt), to be settled externally.
func VerifyAffineProduct(n int, claim field.Element, proof *ProductProof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	return verify(claim, 2, n, proof.values(), fiatShamir(tr, "sumcheckA", n))
}

// ProveTriple runs the degree-3 sum-check prover for Σ e·f·g. It returns
// the proof, the challenge point (x_1..x_n order), the claimed sum, and
// the final evaluations [e(pt), f(pt), g(pt)].
func ProveTriple(e, f, g *poly.Multilinear, tr *transcript.Transcript) (*TripleProof, []field.Element, field.Element, [3]field.Element, error) {
	n := e.NumVars()
	if f.NumVars() != n || g.NumVars() != n {
		return nil, nil, field.Element{}, [3]field.Element{}, fmt.Errorf("sumcheck: arity mismatch %d/%d/%d", n, f.NumVars(), g.NumVars())
	}
	msgs, point, claim, finals := proveFrom(n, 3, 4, TableSource(e.Evals(), f.Evals(), g.Evals()), tripleTerms, fiatShamir(tr, "sumcheck3", n))
	return tripleProof(msgs), point, claim, [3]field.Element(finals), nil
}

func tripleProof(msgs []field.Element) *TripleProof {
	p := &TripleProof{Rounds: make([]TripleRound, len(msgs)/4)}
	for i := range p.Rounds {
		copy(p.Rounds[i].At[:], msgs[4*i:])
	}
	return p
}

// VerifyTriple checks an n-round degree-3 sum-check proof against a
// claimed sum, returning the challenge point and the final claimed product
// e(pt)·f(pt)·g(pt), which the caller checks externally (evaluating eq(τ,
// pt) directly and opening f, g through a commitment).
func VerifyTriple(n int, claim field.Element, proof *TripleProof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	return verify(claim, 3, n, proof.values(), fiatShamir(tr, "sumcheck3", n))
}
