package protocol

import (
	"bytes"
	"reflect"
	"testing"

	"batchzk/internal/sha2"
)

// FuzzProofDecode feeds arbitrary bytes to the proof decoder. Decoding
// must never panic, and whatever it accepts must re-encode to exactly
// the bytes it read: the encoding is canonical, so decode∘encode is the
// identity on every valid proof, the seed proofs included.
func FuzzProofDecode(f *testing.F) {
	var seed []byte
	for _, gates := range []int{8, 32} {
		_, _, _, proof := proofForTest(f, gates)
		data, err := proof.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		var back Proof
		if err := back.UnmarshalBinary(data); err != nil {
			f.Fatalf("%d gates: %v", gates, err)
		}
		if !reflect.DeepEqual(&back, proof) {
			f.Fatalf("%d gates: decoded proof differs from the encoded one", gates)
		}
		f.Add(data)
		seed = data
	}
	f.Add(append(proofMagic[:], 0xff, 0xff, 0xff, 0x0f))
	f.Add(append([]byte("BZK1"), seed[4:]...)) // the retired format: refused
	f.Add(seed[:len(seed)-sha2.Size])          // one sibling short: truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		again, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted proof does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted proof re-encodes to different bytes")
		}
	})
}
