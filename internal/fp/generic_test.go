package fp

import "math/bits"

// MulGeneric sets e = x·y with the loop-based CIOS the unrolled Mul
// replaced, kept as the oracle the differential tests, fuzz targets and
// benchmarks pin Mul and Square against.
func MulGeneric(e, x, y *Element) *Element {
	q := [4]uint64{q0, q1, q2, q3}
	var t [5]uint64
	for i := 0; i < 4; i++ {
		var carry, c uint64
		xi := x[i]
		hi, lo := bits.Mul64(xi, y[0])
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

		m := t[0] * qInvNeg

		hi, lo = bits.Mul64(m, q[0])
		_, c = bits.Add64(t[0], lo, 0)
		carry = hi + c

		hi, lo = bits.Mul64(m, q[1])
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[0], c = bits.Add64(t[1], lo, 0)
		carry = hi + c

		hi, lo = bits.Mul64(m, q[2])
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[1], c = bits.Add64(t[2], lo, 0)
		carry = hi + c

		hi, lo = bits.Mul64(m, q[3])
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[2], c = bits.Add64(t[3], lo, 0)
		carry = hi + c

		t[3], c = bits.Add64(t[4], carry, 0)
		t[4] = c
	}
	e[0], e[1], e[2], e[3] = t[0], t[1], t[2], t[3]
	if t[4] != 0 {
		var b uint64
		e[0], b = bits.Sub64(e[0], q[0], 0)
		e[1], b = bits.Sub64(e[1], q[1], b)
		e[2], b = bits.Sub64(e[2], q[2], b)
		e[3], _ = bits.Sub64(e[3], q[3], b)
	}
	e.reduce()
	return e
}
