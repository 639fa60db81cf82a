package gkr

import (
	"errors"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// padded returns the multilinear of 2^n entries that starts with head and
// is zero elsewhere.
func padded(n int, head ...field.Element) *poly.Multilinear {
	evals := make([]field.Element, 1<<n)
	copy(evals, head)
	m, err := poly.NewMultilinear(evals)
	if err != nil {
		panic(err)
	}
	return m
}

// forgeLayer0 replaces layer 0's two phases with sum-checks of n1 and n2
// rounds that pass every round check: honest affine-product sum-checks of
// each phase's claim over [claim]·[1] + 0, zero-padded to that size, run
// on the transcript the verifier replays.
func forgeLayer0(t *testing.T, honest *Proof, n1, n2 int) *Proof {
	t.Helper()
	tr := transcript.New(Domain)
	tr.AppendElements("gkr/outputs", honest.Outputs)
	tr.ChallengeElements("gkr/r", log2(len(honest.Outputs)))
	lp := honest.Layers[0]
	var claim field.Element
	claim.Add(&lp.Phase1.Rounds[0].At0, &lp.Phase1.Rounds[0].At1)
	one := field.One()
	p1, _, finals, err := sumcheck.ProveAffineProduct(padded(n1, claim), padded(n1, one), padded(n1), claim, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.AppendElement("gkr/vu", &lp.VU)
	claim.Mul(&finals[0], &finals[1])
	claim.Add(&claim, &finals[2])
	p2, _, _, err := sumcheck.ProveAffineProduct(padded(n2, claim), padded(n2, one), padded(n2), claim, tr)
	if err != nil {
		t.Fatal(err)
	}
	forged := *honest
	forged.Layers = append([]LayerProof{{Phase1: p1, Phase2: p2, VU: lp.VU, VV: lp.VV}}, honest.Layers[1:]...)
	return &forged
}

// TestVerifyRejectsWrongRoundCount: a layer phase with one round too few
// or too many is rejected with ErrReject, never a panic or another error.
func TestVerifyRejectsWrongRoundCount(t *testing.T) {
	c := randomCircuit(2, 8, 8, 11)
	in := field.RandVector(8)
	honest, _, _, err := Prove(c, in, transcript.New(Domain))
	if err != nil {
		t.Fatal(err)
	}
	s := log2(len(c.Layers[1]))
	for _, tc := range []struct {
		name   string
		n1, n2 int
	}{
		{"phase1 short", s - 1, s},
		{"phase1 long", s + 1, s},
		{"phase2 short", s, s - 1},
		{"phase2 long", s, s + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := forgeLayer0(t, honest, tc.n1, tc.n2)
			if _, err := VerifyPublic(c, in, forged, transcript.New(Domain)); !errors.Is(err, ErrReject) {
				t.Fatalf("got %v, want ErrReject", err)
			}
		})
	}
}
