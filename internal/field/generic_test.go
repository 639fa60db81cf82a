package field

import (
	"math/big"
	"math/bits"
)

// Reference implementations of the hot arithmetic, kept verbatim from the
// pre-unrolled code as test oracles: the differential tests, fuzz targets
// and benchmarks pin the unrolled Mul/Square and the fixed-chain Inverse
// against them (and against big.Int).

// MulGeneric sets e = x·y with the loop-based CIOS Montgomery multiply the
// unrolled Mul replaced. Bit-identical to Mul for all inputs.
func MulGeneric(e, x, y *Element) *Element {
	var t [5]uint64
	for i := 0; i < 4; i++ {
		// t += x[i] * y
		var carry uint64
		xi := x[i]
		hi, lo := bits.Mul64(xi, y[0])
		var c uint64
		t[0], c = bits.Add64(t[0], lo, 0)
		carry = hi + c

		hi, lo = bits.Mul64(xi, y[1])
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[1], c = bits.Add64(t[1], lo, 0)
		carry = hi + c

		hi, lo = bits.Mul64(xi, y[2])
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[2], c = bits.Add64(t[2], lo, 0)
		carry = hi + c

		hi, lo = bits.Mul64(xi, y[3])
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[3], c = bits.Add64(t[3], lo, 0)
		carry = hi + c

		t[4] += carry

		// Montgomery step: add m·q so the low limb cancels, shift right 64.
		m := t[0] * qInvNeg

		hi, lo = bits.Mul64(m, q0)
		_, c = bits.Add64(t[0], lo, 0)
		carry = hi + c

		hi, lo = bits.Mul64(m, q1)
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[0], c = bits.Add64(t[1], lo, 0)
		carry = hi + c

		hi, lo = bits.Mul64(m, q2)
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[1], c = bits.Add64(t[2], lo, 0)
		carry = hi + c

		hi, lo = bits.Mul64(m, q3)
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[2], c = bits.Add64(t[3], lo, 0)
		carry = hi + c

		t[3], c = bits.Add64(t[4], carry, 0)
		t[4] = c
	}
	e[0], e[1], e[2], e[3] = t[0], t[1], t[2], t[3]
	// t[4] can be at most 1; fold it by subtracting the modulus, which is
	// guaranteed to clear it because the result is < 2r.
	if t[4] != 0 {
		var b uint64
		e[0], b = bits.Sub64(e[0], q0, 0)
		e[1], b = bits.Sub64(e[1], q1, b)
		e[2], b = bits.Sub64(e[2], q2, b)
		e[3], _ = bits.Sub64(e[3], q3, b)
	}
	e.reduce()
	return e
}

// SquareGeneric sets e = x² by delegating to MulGeneric — the pre-change
// squaring path, which had no dedicated partial-product sharing.
func SquareGeneric(e, x *Element) *Element { return MulGeneric(e, x, x) }

// rMinusTwoBig returns r−2 for the big.Int reference ladder.
func rMinusTwoBig() *big.Int {
	return new(big.Int).Sub(modulus, big.NewInt(2))
}

// InverseGeneric sets e = x^{r−2} via the big.Int-exponent square-and-
// multiply ladder the fixed-chain Inverse replaced. Zero maps to zero.
func InverseGeneric(e, x *Element) *Element {
	if x.IsZero() {
		return e.SetZero()
	}
	exp := rMinusTwoBig()
	res := one
	b := *x
	for i := 0; i < exp.BitLen(); i++ {
		if exp.Bit(i) == 1 {
			MulGeneric(&res, &res, &b)
		}
		MulGeneric(&b, &b, &b)
	}
	*e = res
	return e
}
