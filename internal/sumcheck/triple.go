package sumcheck

import (
	"fmt"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// TripleRound is the message of one round of the degree-3 sum-check: the
// round polynomial's evaluations at 0, 1, 2, 3.
type TripleRound struct {
	At [4]field.Element
}

// TripleProof proves H = Σ_b e(b)·f(b)·g(b) for multilinear e, f, g — the
// shape of the Hadamard gate-consistency check (e is the eq polynomial,
// f and g the left/right gate-input polynomials).
type TripleProof struct {
	Rounds []TripleRound
}

// ProveTriple runs the degree-3 sum-check prover for Σ e·f·g. It returns
// the proof, the challenge point (x_1..x_n order), the claimed sum, and
// the final evaluations [e(pt), f(pt), g(pt)]. The tables are read, never
// written.
func ProveTriple(e, f, g *poly.Multilinear, tr *transcript.Transcript) (*TripleProof, []field.Element, field.Element, [3]field.Element, error) {
	n := e.NumVars()
	if f.NumVars() != n || g.NumVars() != n {
		return nil, nil, field.Element{}, [3]field.Element{}, fmt.Errorf("sumcheck: arity mismatch %d/%d/%d", n, f.NumVars(), g.NumVars())
	}
	proof, point, claim, finals := ProveTripleFrom(n, TableSource(e.Evals(), f.Evals(), g.Evals()), tr)
	return proof, point, claim, finals, nil
}

// tripleXs are the points 0..3 the degree-3 round polynomial is sent at.
var tripleXs = [4]field.Element{field.NewElement(0), field.NewElement(1), field.NewElement(2), field.NewElement(3)}

// tripleTerms adds, for x = 0..3, Σ e_x·f_x·g_x over aligned entries of
// the three tables' halves, where t_x = lerp(x, low, high).
func tripleTerms(low, high [][]field.Element, acc []field.Element) {
	e0, f0, g0 := low[0], low[1], low[2]
	e1, f1, g1 := high[0], high[1], high[2]
	var at [4]field.Element
	var ex, fx, gx, t field.Element
	for b := range e0 {
		for x := range tripleXs {
			ex.Lerp(&tripleXs[x], &e0[b], &e1[b])
			fx.Lerp(&tripleXs[x], &f0[b], &f1[b])
			gx.Lerp(&tripleXs[x], &g0[b], &g1[b])
			t.Mul(&ex, &fx)
			t.Mul(&t, &gx)
			at[x].Add(&at[x], &t)
		}
	}
	for x := range at {
		acc[x].Add(&acc[x], &at[x])
	}
}

// ProveTripleFrom is ProveTriple over three n-variate tables supplied by
// src (see Source), which the first rounds read instead of stored tables.
func ProveTripleFrom(n int, src Source, tr *transcript.Transcript) (*TripleProof, []field.Element, field.Element, [3]field.Element) {
	msgs, point, claim, finals := proveFrom("sumcheck3", n, 3, 4, src, tripleTerms, tr)
	proof := &TripleProof{Rounds: make([]TripleRound, n)}
	for i, m := range msgs {
		copy(proof.Rounds[i].At[:], m)
	}
	return proof, point, claim, [3]field.Element(finals)
}

// VerifyTriple checks a degree-3 sum-check proof against a claimed sum,
// returning the challenge point and the final claimed product
// e(pt)·f(pt)·g(pt) that the caller must check externally (typically
// evaluating eq(τ, pt) directly and opening f, g through a commitment).
func VerifyTriple(claim field.Element, proof *TripleProof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	n := len(proof.Rounds)
	if n == 0 {
		return nil, field.Element{}, fmt.Errorf("sumcheck: empty triple proof")
	}
	tr.AppendUint64("sumcheck3/n", uint64(n))
	tr.AppendElement("sumcheck3/claim", &claim)
	expected := claim
	challenges := make([]field.Element, n)
	for i := range proof.Rounds {
		rd := &proof.Rounds[i]
		var sum field.Element
		sum.Add(&rd.At[0], &rd.At[1])
		if !sum.Equal(&expected) {
			return nil, field.Element{}, fmt.Errorf("%w: triple round %d sum mismatch", ErrReject, i)
		}
		tr.AppendElements("sumcheck3/round", rd.At[:])
		r := tr.ChallengeElement("sumcheck3/r")
		challenges[i] = r
		expected = poly.InterpolateEvalAt(rd.At[:], &r)
	}
	return reversed(challenges), expected, nil
}
