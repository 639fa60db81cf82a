package sumcheck

import (
	"errors"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

func TestTripleProveVerify(t *testing.T) {
	for _, n := range []int{1, 3, 7} {
		e := poly.RandMultilinear(n)
		f := poly.RandMultilinear(n)
		g := poly.RandMultilinear(n)
		proof, point, claim, finals, err := ProveTriple(e, f, g, transcript.New("sc3"))
		if err != nil {
			t.Fatal(err)
		}
		// Claim must be Σ e·f·g.
		var want, tt field.Element
		for b := range e.Evals() {
			tt.Mul(&e.Evals()[b], &f.Evals()[b])
			tt.Mul(&tt, &g.Evals()[b])
			want.Add(&want, &tt)
		}
		if !claim.Equal(&want) {
			t.Fatal("claim mismatch")
		}
		gotPoint, finalProd, err := VerifyTriple(n, claim, proof, transcript.New("sc3"))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !field.VectorEqual(point, gotPoint) {
			t.Fatal("challenge point mismatch")
		}
		ee, _ := e.Evaluate(gotPoint)
		fe, _ := f.Evaluate(gotPoint)
		ge, _ := g.Evaluate(gotPoint)
		var prod field.Element
		prod.Mul(&ee, &fe)
		prod.Mul(&prod, &ge)
		if !prod.Equal(&finalProd) {
			t.Fatalf("n=%d: final product mismatch", n)
		}
		if !ee.Equal(&finals[0]) || !fe.Equal(&finals[1]) || !ge.Equal(&finals[2]) {
			t.Fatal("prover finals mismatch")
		}
	}
}

func TestTripleWithEqPolynomial(t *testing.T) {
	// The Hadamard-check shape: Σ_b eq(τ,b)·f(b)·g(b) = (f∘g)~(τ).
	n := 5
	f := poly.RandMultilinear(n)
	g := poly.RandMultilinear(n)
	tau := field.RandVector(n)
	eqTable, _ := poly.NewMultilinear(poly.EqTable(tau))

	proof, _, claim, _, err := ProveTriple(eqTable, f, g, transcript.New("had"))
	if err != nil {
		t.Fatal(err)
	}
	// claim must equal the MLE of the pointwise product at τ.
	prodEvals := make([]field.Element, 1<<n)
	for b := range prodEvals {
		prodEvals[b].Mul(&f.Evals()[b], &g.Evals()[b])
	}
	fg, _ := poly.NewMultilinear(prodEvals)
	want, _ := fg.Evaluate(tau)
	if !claim.Equal(&want) {
		t.Fatal("Σ eq·f·g != (f∘g)~(τ)")
	}

	// Verify, then check the final value using the closed-form eq
	// evaluation (what the real verifier does — no eq table needed).
	pt, finalProd, err := VerifyTriple(n, claim, proof, transcript.New("had"))
	if err != nil {
		t.Fatal(err)
	}
	eqAt, err := poly.EqEval(tau, pt)
	if err != nil {
		t.Fatal(err)
	}
	fe, _ := f.Evaluate(pt)
	ge, _ := g.Evaluate(pt)
	var prod field.Element
	prod.Mul(&eqAt, &fe)
	prod.Mul(&prod, &ge)
	if !prod.Equal(&finalProd) {
		t.Fatal("closed-form eq check failed")
	}
}

func TestTripleRejections(t *testing.T) {
	e := poly.RandMultilinear(4)
	f := poly.RandMultilinear(4)
	g := poly.RandMultilinear(4)
	proof, _, claim, _, _ := ProveTriple(e, f, g, transcript.New("sc3"))

	var bad field.Element
	bad.Add(&claim, &[]field.Element{field.One()}[0])
	if _, _, err := VerifyTriple(4, bad, proof, transcript.New("sc3")); !errors.Is(err, ErrReject) {
		t.Fatalf("wrong claim accepted: %v", err)
	}
	if _, _, err := VerifyTriple(4, claim, &TripleProof{}, transcript.New("sc3")); err == nil {
		t.Fatal("empty proof accepted")
	}
	h := poly.RandMultilinear(5)
	if _, _, _, _, err := ProveTriple(e, f, h, transcript.New("sc3")); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, _, _, _, err := ProveTriple(e, h, f, transcript.New("sc3")); err == nil {
		t.Fatal("arity mismatch accepted (middle)")
	}

	tampered := &TripleProof{Rounds: append([]TripleRound{}, proof.Rounds...)}
	tampered.Rounds[1].At[3].Add(&tampered.Rounds[1].At[3], &claim)
	pt, finalProd, err := VerifyTriple(4, claim, tampered, transcript.New("sc3"))
	if err == nil {
		// Must be caught at the external final check.
		ee, _ := e.Evaluate(pt)
		fe, _ := f.Evaluate(pt)
		ge, _ := g.Evaluate(pt)
		var prod field.Element
		prod.Mul(&ee, &fe)
		prod.Mul(&prod, &ge)
		if prod.Equal(&finalProd) {
			t.Fatal("tampered round escaped detection")
		}
	}
}

func TestEqEvalMatchesTable(t *testing.T) {
	z := field.RandVector(4)
	y := field.RandVector(4)
	table, _ := poly.NewMultilinear(poly.EqTable(z))
	want, _ := table.Evaluate(y)
	got, err := poly.EqEval(z, y)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&want) {
		t.Fatal("EqEval != table evaluation")
	}
	if _, err := poly.EqEval(z, y[:2]); err == nil {
		t.Fatal("accepted arity mismatch")
	}
}
