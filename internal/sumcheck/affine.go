package sumcheck

import (
	"fmt"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// Affine-product sum-check: proves H = Σ_b a(b)·v(b) + c(b) for
// multilinear a, v, c — the per-phase shape of the GKR layer proof
// (Libra's linear-time prover), where a carries the multiplicative wiring
// weights, v the next layer's values, and c the additive wiring terms.
// Round polynomials are degree 2, transmitted as evaluations at 0, 1, 2.

// ProveAffineProduct runs the prover for Σ a·v + c against a caller-
// provided claim (GKR chains claims across phases, so the claim is an
// input, and the prover verifies it internally). It returns the proof,
// the challenge point (x_1..x_n order), and the final table values
// [a(pt), v(pt), c(pt)].
func ProveAffineProduct(a, v, c *poly.Multilinear, claim field.Element, tr *transcript.Transcript) (*ProductProof, []field.Element, [3]field.Element, error) {
	n := a.NumVars()
	if v.NumVars() != n || c.NumVars() != n {
		return nil, nil, [3]field.Element{}, fmt.Errorf("sumcheck: affine arity mismatch %d/%d/%d", n, v.NumVars(), c.NumVars())
	}
	// The caller's tables, until round 0 folds them into owned ones.
	at, vt, ct := a.Evals(), v.Evals(), c.Evals()
	tables := [][]field.Element{at, vt, ct}

	var check, t field.Element
	for b := range at {
		t.Mul(&at[b], &vt[b])
		check.Add(&check, &t)
		check.Add(&check, &ct[b])
	}
	if !check.Equal(&claim) {
		return nil, nil, [3]field.Element{}, fmt.Errorf("sumcheck: affine claim does not match the tables")
	}
	tr.AppendUint64("sumcheckA/n", uint64(n))
	tr.AppendElement("sumcheckA/claim", &claim)

	proof := &ProductProof{Rounds: make([]ProductRound, n)}
	challenges := make([]field.Element, n)
	two := field.NewElement(2)
	s := par.GetScratch()
	defer par.PutScratch(s)
	for i := 0; i < n; i++ {
		at, vt, ct = tables[0], tables[1], tables[2]
		half := len(at) / 2
		var sums [3]field.Element
		reduceSums(s, half, 3, sums[:], func(lo, hi int, acc []field.Element) {
			var r0, r1, r2, t field.Element
			var a2, v2, c2 field.Element
			for b := lo; b < hi; b++ {
				t.Mul(&at[b], &vt[b])
				r0.Add(&r0, &t)
				r0.Add(&r0, &ct[b])
				t.Mul(&at[b+half], &vt[b+half])
				r1.Add(&r1, &t)
				r1.Add(&r1, &ct[b+half])
				a2.Lerp(&two, &at[b], &at[b+half])
				v2.Lerp(&two, &vt[b], &vt[b+half])
				c2.Lerp(&two, &ct[b], &ct[b+half])
				t.Mul(&a2, &v2)
				r2.Add(&r2, &t)
				r2.Add(&r2, &c2)
			}
			acc[0].Add(&acc[0], &r0)
			acc[1].Add(&acc[1], &r1)
			acc[2].Add(&acc[2], &r2)
		})
		proof.Rounds[i] = ProductRound{At0: sums[0], At1: sums[1], At2: sums[2]}
		tr.AppendElements("sumcheckA/round", sums[:])
		r := tr.ChallengeElement("sumcheckA/r")
		challenges[i] = r
		foldRound(&r, i, tables)
	}
	return proof, reversed(challenges), [3]field.Element{tables[0][0], tables[1][0], tables[2][0]}, nil
}

// VerifyAffineProduct checks an affine-product proof against a claim and
// returns the challenge point plus the final claimed value
// a(pt)·v(pt) + c(pt), to be settled externally.
func VerifyAffineProduct(claim field.Element, proof *ProductProof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	n := len(proof.Rounds)
	if n == 0 {
		return nil, field.Element{}, fmt.Errorf("sumcheck: empty affine proof")
	}
	tr.AppendUint64("sumcheckA/n", uint64(n))
	tr.AppendElement("sumcheckA/claim", &claim)
	expected := claim
	challenges := make([]field.Element, n)
	for i, rd := range proof.Rounds {
		var sum field.Element
		sum.Add(&rd.At0, &rd.At1)
		if !sum.Equal(&expected) {
			return nil, field.Element{}, fmt.Errorf("%w: affine round %d sum mismatch", ErrReject, i)
		}
		tr.AppendElements("sumcheckA/round", []field.Element{rd.At0, rd.At1, rd.At2})
		r := tr.ChallengeElement("sumcheckA/r")
		challenges[i] = r
		expected = poly.InterpolateEvalAt([]field.Element{rd.At0, rd.At1, rd.At2}, &r)
	}
	return reversed(challenges), expected, nil
}
