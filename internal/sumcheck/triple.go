package sumcheck

import (
	"fmt"

	"batchzk/internal/field"
	"batchzk/internal/par"
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
// the final evaluations [e(pt), f(pt), g(pt)].
func ProveTriple(e, f, g *poly.Multilinear, tr *transcript.Transcript) (*TripleProof, []field.Element, field.Element, [3]field.Element, error) {
	n := e.NumVars()
	if f.NumVars() != n || g.NumVars() != n {
		return nil, nil, field.Element{}, [3]field.Element{}, fmt.Errorf("sumcheck: arity mismatch %d/%d/%d", n, f.NumVars(), g.NumVars())
	}
	// The caller's tables, until round 0 folds them into owned ones.
	et, ft, gt := e.Evals(), f.Evals(), g.Evals()
	tables := [][]field.Element{et, ft, gt}

	var claim, t field.Element
	for b := range et {
		t.Mul(&et[b], &ft[b])
		t.Mul(&t, &gt[b])
		claim.Add(&claim, &t)
	}
	tr.AppendUint64("sumcheck3/n", uint64(n))
	tr.AppendElement("sumcheck3/claim", &claim)

	proof := &TripleProof{Rounds: make([]TripleRound, n)}
	challenges := make([]field.Element, n)
	xs := [4]field.Element{
		field.NewElement(0), field.NewElement(1),
		field.NewElement(2), field.NewElement(3),
	}
	s := par.GetScratch()
	defer par.PutScratch(s)
	for i := 0; i < n; i++ {
		et, ft, gt = tables[0], tables[1], tables[2]
		half := len(et) / 2
		var round TripleRound
		reduceSums(s, half, 4, round.At[:], func(lo, hi int, acc []field.Element) {
			var at [4]field.Element
			var ex, fx, gx, t field.Element
			for b := lo; b < hi; b++ {
				for x := 0; x < 4; x++ {
					ex.Lerp(&xs[x], &et[b], &et[b+half])
					fx.Lerp(&xs[x], &ft[b], &ft[b+half])
					gx.Lerp(&xs[x], &gt[b], &gt[b+half])
					t.Mul(&ex, &fx)
					t.Mul(&t, &gx)
					at[x].Add(&at[x], &t)
				}
			}
			for x := 0; x < 4; x++ {
				acc[x].Add(&acc[x], &at[x])
			}
		})
		proof.Rounds[i] = round
		tr.AppendElements("sumcheck3/round", round.At[:])
		r := tr.ChallengeElement("sumcheck3/r")
		challenges[i] = r
		foldRound(&r, i, tables)
	}
	return proof, reversed(challenges), claim, [3]field.Element{tables[0][0], tables[1][0], tables[2][0]}, nil
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
