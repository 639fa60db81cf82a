package sumcheck

import (
	"errors"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

func TestProveVerifyRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10} {
		m := poly.RandMultilinear(n)
		proof, point, claim := Prove(m, transcript.New("sc"))
		if proof.NumRounds() != n {
			t.Fatalf("n=%d rounds=%d", n, proof.NumRounds())
		}
		gotPoint, final, err := Verify(n, claim, proof, transcript.New("sc"))
		if err != nil {
			t.Fatalf("n=%d verify: %v", n, err)
		}
		if !field.VectorEqual(point, gotPoint) {
			t.Fatalf("n=%d verifier challenges differ from prover", n)
		}
		// The verifier's final claim must equal p at the challenge point.
		eval, err := m.Evaluate(gotPoint)
		if err != nil {
			t.Fatal(err)
		}
		if !eval.Equal(&final) {
			t.Fatalf("n=%d final evaluation mismatch", n)
		}
	}
}

func TestVerifyRejectsWrongClaim(t *testing.T) {
	m := poly.RandMultilinear(6)
	proof, _, claim := Prove(m, transcript.New("sc"))
	var bad field.Element
	bad.Add(&claim, &[]field.Element{field.One()}[0])
	if _, _, err := Verify(6, bad, proof, transcript.New("sc")); !errors.Is(err, ErrReject) {
		t.Fatalf("wrong claim accepted: %v", err)
	}
}

func TestVerifyRejectsTamperedRound(t *testing.T) {
	m := poly.RandMultilinear(6)
	proof, _, claim := Prove(m, transcript.New("sc"))
	for round := 0; round < 6; round += 2 {
		tampered := &Proof{Rounds: append([]RoundPair{}, proof.Rounds...)}
		tampered.Rounds[round].P1.Add(&tampered.Rounds[round].P1, &[]field.Element{field.One()}[0])
		_, final, err := Verify(6, claim, tampered, transcript.New("sc"))
		if err == nil {
			// Tampering a single P1 in a way that preserves P1+P2 is not
			// possible here (we only changed P1), so sums must mismatch —
			// except in round > 0 where the expected value also shifts.
			// In every case a final-evaluation check must fail:
			pt, _, _ := Verify(6, claim, tampered, transcript.New("sc"))
			eval, _ := m.Evaluate(pt)
			if eval.Equal(&final) {
				t.Fatalf("round %d tampering passed all checks", round)
			}
		}
	}
	if _, _, err := Verify(6, claim, &Proof{}, transcript.New("sc")); err == nil {
		t.Fatal("empty proof accepted")
	}
}

func TestSoundnessAgainstWrongPolynomial(t *testing.T) {
	// A prover committing to p but claiming the sum of q should be caught
	// when the verifier checks the final evaluation against p.
	m := poly.RandMultilinear(5)
	q := poly.RandMultilinear(5)
	proof, _, _ := Prove(m, transcript.New("sc"))
	wrongClaim := q.HypercubeSum()
	_, _, err := Verify(5, wrongClaim, proof, transcript.New("sc"))
	if err == nil {
		t.Fatal("first-round sum check should already fail for a wrong claim")
	}
}

func TestProveWithChallenges(t *testing.T) {
	m := poly.RandMultilinear(7)
	rs := field.RandVector(7)
	proof, final, err := ProveWithChallenges(m, rs)
	if err != nil {
		t.Fatal(err)
	}
	claim := m.HypercubeSum()
	got, err := VerifyChallenges(claim, proof, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&final) {
		t.Fatal("verifier final value != prover folded value")
	}
	// Cross-check against direct evaluation at the reversed point.
	eval, _ := m.Evaluate(reversed(rs))
	if !eval.Equal(&final) {
		t.Fatal("folded value != polynomial evaluation")
	}
	if _, _, err := ProveWithChallenges(m, rs[:3]); err == nil {
		t.Fatal("accepted wrong challenge count")
	}
	if _, err := VerifyChallenges(claim, proof, rs[:3]); err == nil {
		t.Fatal("VerifyChallenges accepted wrong challenge count")
	}
	var badClaim field.Element
	badClaim.Add(&claim, &rs[0])
	if _, err := VerifyChallenges(badClaim, proof, rs); !errors.Is(err, ErrReject) {
		t.Fatalf("wrong claim accepted: %v", err)
	}
}

func TestAlgorithm1Semantics(t *testing.T) {
	// Hand-check Algorithm 1 on a tiny instance: n=2,
	// A = [a0, a1, a2, a3], challenges r1 (binds x2), r2 (binds x1).
	a := []field.Element{field.NewElement(3), field.NewElement(5), field.NewElement(7), field.NewElement(11)}
	m, _ := poly.NewMultilinear(append([]field.Element{}, a...))
	rs := []field.Element{field.NewElement(2), field.NewElement(9)}
	proof, final, err := ProveWithChallenges(m, rs)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: π11 = a0+a1 = 8, π12 = a2+a3 = 18.
	if v, _ := proof.Rounds[0].P1.Uint64(); v != 8 {
		t.Fatalf("π11 = %d", v)
	}
	if v, _ := proof.Rounds[0].P2.Uint64(); v != 18 {
		t.Fatalf("π12 = %d", v)
	}
	// Table update with r1=2: A[b] = (1-2)A[b] + 2A[b+2] = 2A[b+2]-A[b].
	// A' = [2·7-3, 2·11-5] = [11, 17]; round 2: π21 = 11, π22 = 17.
	if v, _ := proof.Rounds[1].P1.Uint64(); v != 11 {
		t.Fatalf("π21 = %d", v)
	}
	if v, _ := proof.Rounds[1].P2.Uint64(); v != 17 {
		t.Fatalf("π22 = %d", v)
	}
	// Final: (1-9)·11 + 9·17 = -88 + 153 = 65.
	if v, _ := final.Uint64(); v != 65 {
		t.Fatalf("final = %d", v)
	}
}

func TestProductProveVerify(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		f := poly.RandMultilinear(n)
		g := poly.RandMultilinear(n)
		proof, point, claim, finals, err := ProveProduct(f, g, transcript.New("sc2"))
		if err != nil {
			t.Fatal(err)
		}
		// Claim must be the true inner product.
		want := field.InnerProduct(f.Evals(), g.Evals())
		if !claim.Equal(&want) {
			t.Fatal("claim != inner product")
		}
		gotPoint, finalProd, err := VerifyProduct(n, claim, proof, transcript.New("sc2"))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !field.VectorEqual(point, gotPoint) {
			t.Fatal("challenge mismatch")
		}
		// finalProd must equal f(point)·g(point), and match the prover's
		// reported finals.
		fe, _ := f.Evaluate(gotPoint)
		ge, _ := g.Evaluate(gotPoint)
		var prod field.Element
		prod.Mul(&fe, &ge)
		if !prod.Equal(&finalProd) {
			t.Fatalf("n=%d final product mismatch", n)
		}
		if !fe.Equal(&finals[0]) || !ge.Equal(&finals[1]) {
			t.Fatal("prover finals mismatch")
		}
	}
}

func TestProductRejections(t *testing.T) {
	f := poly.RandMultilinear(4)
	g := poly.RandMultilinear(4)
	proof, _, claim, _, _ := ProveProduct(f, g, transcript.New("sc2"))

	var bad field.Element
	bad.Add(&claim, &[]field.Element{field.One()}[0])
	if _, _, err := VerifyProduct(4, bad, proof, transcript.New("sc2")); !errors.Is(err, ErrReject) {
		t.Fatalf("wrong product claim accepted: %v", err)
	}
	if _, _, err := VerifyProduct(4, claim, &ProductProof{}, transcript.New("sc2")); err == nil {
		t.Fatal("empty product proof accepted")
	}
	h := poly.RandMultilinear(5)
	if _, _, _, _, err := ProveProduct(f, h, transcript.New("sc2")); err == nil {
		t.Fatal("arity mismatch accepted")
	}

	tampered := &ProductProof{Rounds: append([]ProductRound{}, proof.Rounds...)}
	tampered.Rounds[2].At2.Add(&tampered.Rounds[2].At2, &claim)
	pt, finalProd, err := VerifyProduct(4, claim, tampered, transcript.New("sc2"))
	if err == nil {
		fe, _ := f.Evaluate(pt)
		ge, _ := g.Evaluate(pt)
		var prod field.Element
		prod.Mul(&fe, &ge)
		if prod.Equal(&finalProd) {
			t.Fatal("tampered At2 escaped detection")
		}
	}
}

func TestDeterministicProofs(t *testing.T) {
	evals := field.RandVector(32)
	m1, _ := poly.NewMultilinear(append([]field.Element{}, evals...))
	m2, _ := poly.NewMultilinear(append([]field.Element{}, evals...))
	p1, _, _ := Prove(m1, transcript.New("sc"))
	p2, _, _ := Prove(m2, transcript.New("sc"))
	for i := range p1.Rounds {
		if p1.Rounds[i] != p2.Rounds[i] {
			t.Fatal("proofs are not deterministic")
		}
	}
}

func BenchmarkProve(b *testing.B) {
	for _, n := range []int{12, 16} {
		m := poly.RandMultilinear(n)
		b.Run(sizeName(n), func(b *testing.B) {
			rs := field.RandVector(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ProveWithChallenges(m, rs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	return "n=" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// reversed turns round-order challenges into a point in x_1..x_n order.
func reversed(rs []field.Element) []field.Element {
	out := make([]field.Element, len(rs))
	for i := range rs {
		out[i] = rs[len(rs)-1-i]
	}
	return out
}
