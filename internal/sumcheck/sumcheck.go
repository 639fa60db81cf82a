// Package sumcheck implements the sum-check protocol (§2.3 of the BatchZK
// paper), the module the paper's evaluation identifies as the dominant cost
// of modern ZKP protocols.
//
// The prover follows Algorithm 1 of the paper (Vu et al. [55]): a table A
// of 2^n evaluations is folded over n rounds; round i emits the pair
// (π_i1, π_i2) = (Σ_b A[b], Σ_b A[b+2^{n-i}]) and then updates
// A[b] ← (1−r_i)·A[b] + r_i·A[b+2^{n-i}] with the round challenge r_i.
// Challenges come from a Fiat–Shamir transcript, so the protocol here is
// non-interactive; ProveWithChallenges exposes the interactive core with
// caller-supplied randomness (the form the pipelined GPU module uses, where
// the system derives randomness from Merkle roots, §4).
//
// A degree-2 variant (ProveProduct/VerifyProduct) handles claims of the
// form H = Σ_b f(b)·g(b), which the polynomial commitment uses for
// evaluation proofs.
package sumcheck

import (
	"errors"
	"fmt"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

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

// Prove runs the non-interactive sum-check prover for the multilinear
// polynomial m, drawing challenges from tr. It returns the proof, the
// challenge point in x_1..x_n order (ready for Multilinear.Evaluate), and
// the claimed hypercube sum.
//
// Algorithm 1 fixes the *highest-order* variable first, so the challenge
// drawn in round i binds x_{n+1-i}; the returned point is reversed into
// ascending variable order.
func Prove(m *poly.Multilinear, tr *transcript.Transcript) (*Proof, []field.Element, field.Element) {
	n := m.NumVars()
	sum := m.HypercubeSum()
	tr.AppendUint64("sumcheck/n", uint64(n))
	tr.AppendElement("sumcheck/claim", &sum)

	table := append([]field.Element(nil), m.Evals()...)
	proof := &Proof{Rounds: make([]RoundPair, n)}
	challenges := make([]field.Element, n) // round order: binds x_n first
	s := par.GetScratch()
	defer par.PutScratch(s)
	for i := 0; i < n; i++ {
		p1, p2 := halfSums(s, table)
		proof.Rounds[i] = RoundPair{P1: p1, P2: p2}
		tr.AppendElement("sumcheck/p1", &p1)
		tr.AppendElement("sumcheck/p2", &p2)
		r := tr.ChallengeElement("sumcheck/r")
		challenges[i] = r
		foldTables(&r, table)
		table = table[:len(table)/2]
	}
	return proof, reversed(challenges), sum
}

// ProveWithChallenges runs the interactive prover core of Algorithm 1 with
// caller-supplied round randomness (round order: rs[0] binds x_n). It
// returns the proof and the final folded value p(point).
func ProveWithChallenges(m *poly.Multilinear, rs []field.Element) (*Proof, field.Element, error) {
	n := m.NumVars()
	if len(rs) != n {
		return nil, field.Element{}, fmt.Errorf("sumcheck: %d challenges for %d variables", len(rs), n)
	}
	table := append([]field.Element(nil), m.Evals()...)
	proof := &Proof{Rounds: make([]RoundPair, n)}
	s := par.GetScratch()
	defer par.PutScratch(s)
	for i := 0; i < n; i++ {
		p1, p2 := halfSums(s, table)
		proof.Rounds[i] = RoundPair{P1: p1, P2: p2}
		foldTables(&rs[i], table)
		table = table[:len(table)/2]
	}
	return proof, table[0], nil
}

// ErrReject is returned when a proof fails verification.
var ErrReject = errors.New("sumcheck: proof rejected")

// Verify checks a sum-check proof against a claimed sum. It re-derives the
// challenges from an identically initialized transcript, and returns the
// challenge point (x_1..x_n order) together with the final claimed
// evaluation p(point), which the caller must check against the polynomial
// (directly, or via a polynomial-commitment opening).
func Verify(claim field.Element, proof *Proof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	n := proof.NumRounds()
	if n == 0 {
		return nil, field.Element{}, fmt.Errorf("sumcheck: empty proof")
	}
	tr.AppendUint64("sumcheck/n", uint64(n))
	tr.AppendElement("sumcheck/claim", &claim)

	expected := claim
	challenges := make([]field.Element, n)
	for i := 0; i < n; i++ {
		rd := proof.Rounds[i]
		var sum field.Element
		sum.Add(&rd.P1, &rd.P2)
		if !sum.Equal(&expected) {
			return nil, field.Element{}, fmt.Errorf("%w: round %d sum mismatch", ErrReject, i)
		}
		tr.AppendElement("sumcheck/p1", &rd.P1)
		tr.AppendElement("sumcheck/p2", &rd.P2)
		r := tr.ChallengeElement("sumcheck/r")
		challenges[i] = r
		// Round polynomial is linear: g(r) = (1-r)·π1 + r·π2.
		expected.Lerp(&r, &rd.P1, &rd.P2)
	}
	return reversed(challenges), expected, nil
}

// VerifyChallenges replays the verifier checks of a proof produced by
// ProveWithChallenges under known randomness, returning the final claimed
// evaluation.
func VerifyChallenges(claim field.Element, proof *Proof, rs []field.Element) (field.Element, error) {
	if len(rs) != proof.NumRounds() {
		return field.Element{}, fmt.Errorf("sumcheck: %d challenges for %d rounds", len(rs), proof.NumRounds())
	}
	expected := claim
	for i, rd := range proof.Rounds {
		var sum field.Element
		sum.Add(&rd.P1, &rd.P2)
		if !sum.Equal(&expected) {
			return field.Element{}, fmt.Errorf("%w: round %d sum mismatch", ErrReject, i)
		}
		expected.Lerp(&rs[i], &rd.P1, &rd.P2)
	}
	return expected, nil
}

// ProductRound is the message of one round of the degree-2 product
// sum-check: the round polynomial's evaluations at 0, 1, 2.
type ProductRound struct {
	At0, At1, At2 field.Element
}

// ProductProof proves H = Σ_b f(b)·g(b) for multilinear f, g.
type ProductProof struct {
	Rounds []ProductRound
}

// ProveProduct runs the degree-2 sum-check prover for Σ f·g. It returns
// the proof, the challenge point (x_1..x_n order), the claimed sum, and the
// final evaluations f(point), g(point) the verifier needs to check
// externally. The tables are read, never written.
func ProveProduct(f, g *poly.Multilinear, tr *transcript.Transcript) (*ProductProof, []field.Element, field.Element, [2]field.Element, error) {
	n := f.NumVars()
	if g.NumVars() != n {
		return nil, nil, field.Element{}, [2]field.Element{}, fmt.Errorf("sumcheck: arity mismatch %d vs %d", n, g.NumVars())
	}
	proof, point, claim, finals := ProveProductFrom(n, TableSource(f.Evals(), g.Evals()), tr)
	return proof, point, claim, finals, nil
}

var two = field.NewElement(2)

// productTerms adds the round polynomial's values at 0, 1, 2 over aligned
// entries of the two tables' halves: f·g on each half, and the product of
// both tables extrapolated linearly to x = 2.
func productTerms(low, high [][]field.Element, acc []field.Element) {
	f0, g0, f1, g1 := low[0], low[1], high[0], high[1]
	var at0, at1, at2 field.Element
	var t, f2, g2 field.Element
	for b := range f0 {
		t.Mul(&f0[b], &g0[b])
		at0.Add(&at0, &t)
		t.Mul(&f1[b], &g1[b])
		at1.Add(&at1, &t)
		f2.Lerp(&two, &f0[b], &f1[b])
		g2.Lerp(&two, &g0[b], &g1[b])
		t.Mul(&f2, &g2)
		at2.Add(&at2, &t)
	}
	acc[0].Add(&acc[0], &at0)
	acc[1].Add(&acc[1], &at1)
	acc[2].Add(&acc[2], &at2)
}

// ProveProductFrom is ProveProduct over two n-variate tables supplied by
// src (see Source), which the first rounds read instead of stored tables.
func ProveProductFrom(n int, src Source, tr *transcript.Transcript) (*ProductProof, []field.Element, field.Element, [2]field.Element) {
	msgs, point, claim, finals := proveFrom("sumcheck2", n, 2, 3, src, productTerms, tr)
	proof := &ProductProof{Rounds: make([]ProductRound, n)}
	for i, m := range msgs {
		proof.Rounds[i] = ProductRound{At0: m[0], At1: m[1], At2: m[2]}
	}
	return proof, point, claim, [2]field.Element(finals)
}

// VerifyProduct checks a product sum-check proof against a claimed sum,
// returning the challenge point and the final claimed product value
// f(point)·g(point) for external checking.
func VerifyProduct(claim field.Element, proof *ProductProof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	n := len(proof.Rounds)
	if n == 0 {
		return nil, field.Element{}, fmt.Errorf("sumcheck: empty product proof")
	}
	tr.AppendUint64("sumcheck2/n", uint64(n))
	tr.AppendElement("sumcheck2/claim", &claim)
	expected := claim
	challenges := make([]field.Element, n)
	for i, rd := range proof.Rounds {
		var sum field.Element
		sum.Add(&rd.At0, &rd.At1)
		if !sum.Equal(&expected) {
			return nil, field.Element{}, fmt.Errorf("%w: product round %d sum mismatch", ErrReject, i)
		}
		tr.AppendElements("sumcheck2/round", []field.Element{rd.At0, rd.At1, rd.At2})
		r := tr.ChallengeElement("sumcheck2/r")
		challenges[i] = r
		expected = poly.InterpolateEvalAt([]field.Element{rd.At0, rd.At1, rd.At2}, &r)
	}
	return reversed(challenges), expected, nil
}

func reversed(rs []field.Element) []field.Element {
	out := make([]field.Element, len(rs))
	for i := range rs {
		out[i] = rs[len(rs)-1-i]
	}
	return out
}
