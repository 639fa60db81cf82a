// Package transcript implements the Fiat–Shamir transform used to make
// BatchZK's proofs non-interactive.
//
// The paper (§4) derives the sum-check random numbers from pseudo-random
// generators seeded with either the final Merkle root or the output of
// other sum-check modules. Transcript realizes that as a SHA-256 duplex:
// every prover message is absorbed with a domain-separation label, and
// challenges are squeezed as field elements by hashing the running state
// with a counter. Prover and verifier run the identical sequence of
// Append/Challenge calls, so they derive the identical randomness.
package transcript

import (
	"encoding/binary"

	"batchzk/internal/field"
	"batchzk/internal/sha2"
)

// Transcript is a Fiat–Shamir sponge over SHA-256. The zero value is not
// usable; create one with New. A Transcript must not be copied: copies
// would share the message buffer.
type Transcript struct {
	state   sha2.Digest
	counter uint64
	// buf is where each message is laid out before it is hashed in one
	// shot, so a proof's few hundred absorbs and squeezes reuse one buffer
	// (it grows to the longest vector appended) and allocate nothing.
	buf []byte
}

// New returns a transcript bound to a protocol domain label.
func New(domain string) *Transcript {
	t := &Transcript{}
	t.state = sha2.Sum256(append([]byte("batchzk/v1/"), domain...))
	return t
}

// absorb folds labeled data into the running state:
// state ← H(state ‖ len(label) ‖ label ‖ len(data) ‖ data).
func (t *Transcript) absorb(label string, data []byte) {
	b := append(t.buf[:0], t.state[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(label)))
	b = append(b, label...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(data)))
	b = append(b, data...)
	t.state = sha2.Sum256(b)
	t.buf = b
	t.counter = 0
}

// AppendBytes absorbs raw bytes under a label.
func (t *Transcript) AppendBytes(label string, data []byte) {
	t.absorb(label, data)
}

// AppendDigest absorbs a 256-bit digest (e.g. a Merkle root).
func (t *Transcript) AppendDigest(label string, d sha2.Digest) {
	t.absorb(label, d[:])
}

// AppendElement absorbs one field element.
func (t *Transcript) AppendElement(label string, e *field.Element) {
	b := e.ToBytes()
	t.absorb(label, b[:])
}

// AppendElements absorbs a vector of field elements, as the digest of
// their concatenated canonical encodings.
func (t *Transcript) AppendElements(label string, es []field.Element) {
	n := len(es) * field.Bytes
	if cap(t.buf) < n {
		t.buf = make([]byte, n)
	}
	b := t.buf[:n]
	for i := range es {
		es[i].PutBytes(b[i*field.Bytes:])
	}
	d := sha2.Sum256(b)
	t.absorb(label, d[:])
}

// AppendUint64 absorbs an integer (batch indices, sizes, …).
func (t *Transcript) AppendUint64(label string, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	t.absorb(label, b[:])
}

// squeeze produces 48 pseudo-random bytes tied to the state and counter.
func (t *Transcript) squeeze() [48]byte {
	var out [48]byte
	for i := 0; i < 2; i++ {
		b := append(t.buf[:0], t.state[:]...)
		b = binary.BigEndian.AppendUint64(b, t.counter)
		d := sha2.Sum256(b)
		t.buf = b
		copy(out[i*24:], d[:24])
		t.counter++
	}
	return out
}

// ChallengeElement derives one verifier challenge as a field element.
func (t *Transcript) ChallengeElement(label string) field.Element {
	t.absorb("challenge/"+label, nil)
	b := t.squeeze()
	var e field.Element
	e.SetBytesWide(b[:])
	return e
}

// ChallengeElements derives n challenges at once.
func (t *Transcript) ChallengeElements(label string, n int) []field.Element {
	out := make([]field.Element, n)
	t.absorb("challenge/"+label, nil)
	for i := range out {
		b := t.squeeze()
		out[i].SetBytesWide(b[:])
	}
	return out
}

// ChallengeIndices derives n indices in [0, bound) — used to pick the
// random columns opened in the polynomial-commitment proximity test.
func (t *Transcript) ChallengeIndices(label string, n, bound int) []int {
	if bound <= 0 {
		return nil
	}
	out := make([]int, n)
	t.absorb("challenge/"+label, nil)
	for i := range out {
		b := t.squeeze()
		v := binary.BigEndian.Uint64(b[:8])
		out[i] = int(v % uint64(bound))
	}
	return out
}
