package protocol

import (
	"reflect"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
)

// TestStreamingProofBitIdentical pins the streaming commitment path to
// the buffered one: same witness in, byte-identical proof out. Anything
// less and the verifier (or the transcript of a later protocol) would
// notice the prover's memory strategy, which must stay unobservable.
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
	if f.padded != nil || f.ss != nil || f.st != nil {
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
