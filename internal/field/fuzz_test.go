package field

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzElementDecoding drives the canonical 32-byte codec with arbitrary
// input and checks the invariants the proof system relies on:
//
//   - accepted encodings round-trip bit-exactly (SetBytes ∘ ToBytes = id);
//   - rejected encodings are exactly the non-canonical ones (≥ r), and
//     rejection never mutates the receiver;
//   - UnmarshalBinary agrees with SetBytes on every input;
//   - SetBytesWide of arbitrary bytes always lands on a canonical value
//     that agrees with the reference big.Int reduction.
func FuzzElementDecoding(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Add(Modulus().Bytes())                                  // exactly r: must be rejected
	f.Add(new(big.Int).Sub(Modulus(), big.NewInt(1)).Bytes()) // r−1: canonical maximum
	f.Add([]byte{1, 2, 3})                                    // short input (wide path only)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= Bytes {
			var enc [Bytes]byte
			copy(enc[:], data[:Bytes])
			canonical := new(big.Int).SetBytes(enc[:]).Cmp(Modulus()) < 0

			var e Element
			e.SetUint64(12345) // sentinel: must survive a rejected decode
			err := e.SetBytes(enc)
			if canonical != (err == nil) {
				t.Fatalf("SetBytes accept/reject disagrees with big.Int: canonical=%v err=%v", canonical, err)
			}
			if err != nil {
				if v, ok := e.Uint64(); !ok || v != 12345 {
					t.Fatal("rejected decode mutated the receiver")
				}
			} else {
				back := e.ToBytes()
				if back != enc {
					t.Fatalf("round trip not identity:\n in  %x\n out %x", enc, back)
				}
			}

			var u Element
			uerr := u.UnmarshalBinary(enc[:])
			if (uerr == nil) != (err == nil) {
				t.Fatalf("UnmarshalBinary disagrees with SetBytes: %v vs %v", uerr, err)
			}
			if err == nil && !u.Equal(&e) {
				t.Fatal("UnmarshalBinary decoded a different value than SetBytes")
			}
		}

		// The wide reduction accepts anything and must match big.Int.
		var w Element
		w.SetBytesWide(data)
		want := new(big.Int).Mod(new(big.Int).SetBytes(data), Modulus())
		if w.BigInt().Cmp(want) != 0 {
			t.Fatalf("SetBytesWide = %v, big.Int reduction = %v", w.BigInt(), want)
		}
		wb := w.ToBytes()
		var rt Element
		if err := rt.SetBytes(wb); err != nil || !rt.Equal(&w) {
			t.Fatalf("SetBytesWide produced a non-canonical element: %v", err)
		}
	})
}

// FuzzFieldArith extends the decode corpus to the unrolled arithmetic:
// arbitrary bytes are split into two wide-reduced elements and the
// hot-path Mul/Square/Inverse are checked against the retained generic
// references and the big.Int ground truth, and the assembly kernels
// (where the CPU has them) against the Go ones (checkPaths).
func FuzzFieldArith(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(append(Modulus().Bytes(), new(big.Int).Sub(Modulus(), big.NewInt(1)).Bytes()...))
	f.Add([]byte{7}) // single byte: y reduces to zero
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		var x, y Element
		x.SetBytesWide(data[:half])
		y.SetBytesWide(data[half:])
		checkPaths(t, x, y)

		var mul, mulRef Element
		mul.Mul(&x, &y)
		MulGeneric(&mulRef, &x, &y)
		if mul != mulRef {
			t.Fatalf("Mul mismatch: unrolled %v, generic %v", mul.String(), mulRef.String())
		}
		want := new(big.Int).Mul(x.BigInt(), y.BigInt())
		want.Mod(want, Modulus())
		if mul.BigInt().Cmp(want) != 0 {
			t.Fatalf("Mul = %v, big.Int wants %v", mul.String(), want)
		}

		var sq, sqRef Element
		sq.Square(&x)
		SquareGeneric(&sqRef, &x)
		if sq != sqRef {
			t.Fatalf("Square mismatch: dedicated %v, generic %v", sq.String(), sqRef.String())
		}

		var inv, invRef Element
		inv.Inverse(&x)
		InverseGeneric(&invRef, &x)
		if inv != invRef {
			t.Fatalf("Inverse mismatch: chain %v, generic %v", inv.String(), invRef.String())
		}
		if !x.IsZero() {
			var p Element
			p.Mul(&x, &inv)
			if !p.IsOne() {
				t.Fatalf("x·x⁻¹ = %v for x = %v", p.String(), x.String())
			}
		}
	})
}
