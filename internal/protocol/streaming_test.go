package protocol

import (
	"reflect"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/poly"
)

// TestStreamingProofBitIdentical pins every way into the one commit path
// to the same bytes: a precomputed witness (copied into the padded
// buffer), the same witness under the streaming names that once selected
// a second path, and the inputs evaluated straight into the padded
// buffer. The prover's memory strategy must stay unobservable.
func TestStreamingProofBitIdentical(t *testing.T) {
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
		w, err := c.Evaluate(public, secret)
		if err != nil {
			t.Fatal(err)
		}
		buffered, err := ProveWitness(c, p, append(circuit.Assignment(nil), w...))
		if err != nil {
			t.Fatalf("S=%d buffered: %v", s, err)
		}
		streamed, err := ProveWitnessStreaming(c, p, w)
		if err != nil {
			t.Fatalf("S=%d streamed: %v", s, err)
		}
		if !reflect.DeepEqual(streamed, buffered) {
			t.Fatalf("S=%d: streaming proof differs from buffered proof", s)
		}
		fromInputs, err := Prove(c, p, public, secret)
		if err != nil {
			t.Fatalf("S=%d from inputs: %v", s, err)
		}
		if !reflect.DeepEqual(fromInputs, buffered) {
			t.Fatalf("S=%d: proof from inputs differs from proof from the witness", s)
		}
		if err := Verify(c, p, public, streamed); err != nil {
			t.Fatalf("S=%d verify: %v", s, err)
		}
	}
}

// TestStreamingReleasesBuffers checks that Finish hands back the padded
// witness and the commitment state.
func TestStreamingReleasesBuffers(t *testing.T) {
	c := buildTestCircuit(t)
	p, _ := Setup(c)
	w, err := c.Evaluate([]field.Element{field.NewElement(4)}, []field.Element{field.NewElement(6)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := StartProofStreaming(c, p, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunHadamard(); err != nil {
		t.Fatal(err)
	}
	if err := f.RunLinear(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if f.w != nil || f.ss != nil {
		t.Fatal("prover state retained past Finish")
	}
}

func TestStreamingValidation(t *testing.T) {
	c := buildTestCircuit(t)
	p, _ := Setup(c)
	if _, err := StartProofStreaming(c, p, make(circuit.Assignment, 2)); err == nil {
		t.Fatal("accepted short witness")
	}
}

// TestSplitEqMatchesEqTable: the two half tables reproduce every entry of
// the full eq table, for odd and even arities.
func TestSplitEqMatchesEqTable(t *testing.T) {
	for n := 0; n <= 9; n++ {
		z := field.RandVector(n)
		full := poly.EqTable(z)
		s := newSplitEq(z)
		var e field.Element
		for g := range full {
			if s.at(&e, g); e != full[g] {
				t.Fatalf("n=%d: split eq differs at %d", n, g)
			}
		}
	}
}

// TestOutputAtMatchesEvaluation: Õ(τ) summed over the gates equals the
// multilinear evaluation of the padded output-wire table it replaced.
func TestOutputAtMatchesEvaluation(t *testing.T) {
	c, err := circuit.RandomCircuit(300, 3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Setup(c)
	w, err := c.Evaluate(field.RandVector(3), field.RandVector(3))
	if err != nil {
		t.Fatal(err)
	}
	o := make([]field.Element, p.NumGates)
	for g, gate := range c.Gates {
		o[g] = w[gate.Out]
	}
	oPoly, _ := poly.NewMultilinear(o)
	tau := field.RandVector(p.gateVars)
	want, _ := oPoly.Evaluate(tau)
	eqTau := newSplitEq(tau)
	if got := outputAt(c, &eqTau, w); got != want {
		t.Fatalf("Õ(τ) = %v, want %v", got.String(), want.String())
	}
}
