package protocol

import (
	"errors"
	"fmt"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
)

// buildTestCircuit returns y = (x + w)·w − 3 with public x, secret w.
func buildTestCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	x := b.PublicInput()
	w := b.SecretInput()
	s := b.Add(x, w)
	m := b.Mul(s, w)
	y := b.Sub(m, b.Const(field.NewElement(3)))
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestProveVerifyRoundTrip(t *testing.T) {
	c := buildTestCircuit(t)
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	public := []field.Element{field.NewElement(4)}
	secret := []field.Element{field.NewElement(6)}
	proof, err := Prove(c, p, public, secret)
	if err != nil {
		t.Fatal(err)
	}
	// y = (4+6)·6 − 3 = 57.
	if v, _ := proof.Outputs[0].Uint64(); v != 57 {
		t.Fatalf("output = %d", v)
	}
	if err := Verify(c, p, public, proof); err != nil {
		t.Fatal(err)
	}
}

func TestRandomCircuits(t *testing.T) {
	for _, s := range []int{5, 64, 300} {
		c, err := circuit.RandomCircuit(s, 3, 3, int64(s))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Setup(c)
		if err != nil {
			t.Fatal(err)
		}
		public := field.RandVector(3)
		secret := field.RandVector(3)
		proof, err := Prove(c, p, public, secret)
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		if err := Verify(c, p, public, proof); err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
	}
}

func TestRejectWrongPublicInput(t *testing.T) {
	c := buildTestCircuit(t)
	p, _ := Setup(c)
	public := []field.Element{field.NewElement(4)}
	secret := []field.Element{field.NewElement(6)}
	proof, _ := Prove(c, p, public, secret)
	wrong := []field.Element{field.NewElement(5)}
	if err := Verify(c, p, wrong, proof); err == nil {
		t.Fatal("accepted proof under different public input")
	}
	if err := Verify(c, p, nil, proof); err == nil {
		t.Fatal("accepted missing public input")
	}
}

func TestRejectTamperedOutputs(t *testing.T) {
	c := buildTestCircuit(t)
	p, _ := Setup(c)
	public := []field.Element{field.NewElement(4)}
	proof, _ := Prove(c, p, public, []field.Element{field.NewElement(6)})
	proof.Outputs[0] = field.NewElement(58) // off by one
	if err := Verify(c, p, public, proof); err == nil {
		t.Fatal("accepted tampered output")
	}
}

func TestRejectTamperedProofParts(t *testing.T) {
	c, _ := circuit.RandomCircuit(32, 2, 2, 9)
	p, _ := Setup(c)
	public := field.RandVector(2)
	secret := field.RandVector(2)
	base, _ := Prove(c, p, public, secret)
	one := field.One()

	mut := func(f func(*Proof)) error {
		pr, _ := Prove(c, p, public, secret)
		f(pr)
		return Verify(c, p, public, pr)
	}

	if err := mut(func(pr *Proof) { pr.OTau.Add(&pr.OTau, &one) }); err == nil {
		t.Fatal("tampered OTau accepted")
	}
	if err := mut(func(pr *Proof) { pr.LRho.Add(&pr.LRho, &one) }); err == nil {
		t.Fatal("tampered LRho accepted")
	}
	if err := mut(func(pr *Proof) { pr.RRho.Add(&pr.RRho, &one) }); err == nil {
		t.Fatal("tampered RRho accepted")
	}
	if err := mut(func(pr *Proof) { pr.WSigma.Add(&pr.WSigma, &one) }); err == nil {
		t.Fatal("tampered WSigma accepted")
	}
	if err := mut(func(pr *Proof) { pr.Commitment.Root[5] ^= 1 }); err == nil {
		t.Fatal("tampered commitment accepted")
	}
	if err := mut(func(pr *Proof) {
		pr.Hadamard.Rounds[0].At[2].Add(&pr.Hadamard.Rounds[0].At[2], &one)
	}); err == nil {
		t.Fatal("tampered Hadamard round accepted")
	}
	if err := mut(func(pr *Proof) {
		pr.Linear.Rounds[1].At1.Add(&pr.Linear.Rounds[1].At1, &one)
	}); err == nil {
		t.Fatal("tampered linear round accepted")
	}
	if err := mut(func(pr *Proof) { pr.Hadamard = nil }); err == nil {
		t.Fatal("missing Hadamard accepted")
	}
	if err := Verify(c, p, public, nil); !errors.Is(err, ErrReject) {
		t.Fatal("nil proof accepted")
	}
	_ = base
}

func TestSoundnessWrongWitness(t *testing.T) {
	// A witness that does not satisfy the gates must be caught by the
	// prover's own consistency check (Σ eq·L·R != Õ(τ)).
	c := buildTestCircuit(t)
	p, _ := Setup(c)
	w, _ := c.Evaluate([]field.Element{field.NewElement(4)}, []field.Element{field.NewElement(6)})
	w[len(w)-1] = field.NewElement(999) // break the last gate output
	if _, err := ProveWitness(c, p, w); err == nil {
		t.Fatal("prover accepted an unsatisfying witness")
	}
}

func TestProveValidation(t *testing.T) {
	c := buildTestCircuit(t)
	p, _ := Setup(c)
	if _, err := Prove(c, p, nil, []field.Element{field.One()}); err == nil {
		t.Fatal("accepted missing public input")
	}
	if _, err := ProveWitness(c, p, make(circuit.Assignment, 2)); err == nil {
		t.Fatal("accepted short witness")
	}
}

func TestSetupValidation(t *testing.T) {
	if _, err := Setup(&circuit.Circuit{}); err == nil {
		t.Fatal("accepted empty circuit")
	}
}

func TestSingleGateCircuit(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.PublicInput()
	w := b.SecretInput()
	b.Output(b.Mul(x, w))
	c, _ := b.Build()
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	public := []field.Element{field.NewElement(3)}
	secret := []field.Element{field.NewElement(7)}
	proof, err := Prove(c, p, public, secret)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := proof.Outputs[0].Uint64(); v != 21 {
		t.Fatalf("3·7 = %d", v)
	}
	if err := Verify(c, p, public, proof); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyBatch(t *testing.T) {
	c, _ := circuit.RandomCircuit(32, 1, 1, 4)
	p, _ := Setup(c)
	var publics [][]field.Element
	var proofs []*Proof
	for i := 0; i < 4; i++ {
		pub := field.RandVector(1)
		proof, err := Prove(c, p, pub, field.RandVector(1))
		if err != nil {
			t.Fatal(err)
		}
		publics = append(publics, pub)
		proofs = append(proofs, proof)
	}
	// Tamper the third proof.
	proofs[2].Outputs[0] = field.NewElement(77)
	errs := VerifyBatch(c, p, publics, proofs)
	for i, err := range errs {
		if i == 2 && err == nil {
			t.Fatal("tampered proof passed batch verification")
		}
		if i != 2 && err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
	}
	// Missing publics are reported, not panicked.
	errs = VerifyBatch(c, p, publics[:2], proofs)
	if errs[3] == nil {
		t.Fatal("missing publics unreported")
	}
}

func TestDeterministicProof(t *testing.T) {
	c := buildTestCircuit(t)
	p, _ := Setup(c)
	public := []field.Element{field.NewElement(4)}
	secret := []field.Element{field.NewElement(6)}
	p1, _ := Prove(c, p, public, secret)
	p2, _ := Prove(c, p, public, secret)
	if p1.Commitment.Root != p2.Commitment.Root {
		t.Fatal("commitment differs across identical runs")
	}
	if !p1.OTau.Equal(&p2.OTau) || !p1.WSigma.Equal(&p2.WSigma) {
		t.Fatal("proof scalars differ across identical runs")
	}
}

func BenchmarkProve256Gates(b *testing.B) {
	c, _ := circuit.RandomCircuit(256, 2, 2, 1)
	p, _ := Setup(c)
	public := field.RandVector(2)
	secret := field.RandVector(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prove(c, p, public, secret); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify times one verification at the benchmark workloads'
// circuit sizes.
func BenchmarkVerify(b *testing.B) {
	for _, logGates := range []int{8, 12, 16} {
		c, _ := circuit.RandomCircuit(1<<logGates, 2, 2, 1)
		p, _ := Setup(c)
		public := field.RandVector(2)
		proof, err := Prove(c, p, public, field.RandVector(2))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("gates=2^%d", logGates), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := Verify(c, p, public, proof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
