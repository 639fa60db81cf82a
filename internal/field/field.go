// Package field implements arithmetic in the 254-bit prime field used by
// BatchZK's ZKP modules.
//
// The modulus is the scalar field of the BN254 curve,
//
//	r = 21888242871839275222246405745257275088548364400416034343698204186575808495617,
//
// the field used by Orion, Arkworks and the other systems the paper
// compares against. Elements are kept in Montgomery form across four 64-bit
// limbs (little-endian), so a multiplication is a 4×4 schoolbook multiply
// followed by a Montgomery reduction — the same representation GPU
// implementations use with 32-bit lanes.
//
// All operations are constant-size (no big.Int on the hot path) and
// allocation-free; Element is a value type.
package field

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Element is a field element in Montgomery form: the limbs hold a·R mod r
// where R = 2^256. The zero value is the field's zero element.
type Element [4]uint64

// Limbs of the modulus r (little-endian).
const (
	q0 uint64 = 0x43e1f593f0000001
	q1 uint64 = 0x2833e84879b97091
	q2 uint64 = 0xb85045b68181585d
	q3 uint64 = 0x30644e72e131a029
)

// qInvNeg = -r^{-1} mod 2^64, the Montgomery constant.
const qInvNeg uint64 = 0xc2e1f593efffffff

var (
	// qElement is the modulus as limbs, for comparisons.
	qElement = [4]uint64{q0, q1, q2, q3}

	// rSquare = R^2 mod r, used to convert into Montgomery form.
	rSquare = Element{
		0x1bb8e645ae216da7,
		0x53fe3ab1e35c59e3,
		0x8c49833d53bb8085,
		0x0216d0b17f4e44a5,
	}

	// one is 1 in Montgomery form (R mod r).
	one = Element{
		0xac96341c4ffffffb,
		0x36fc76959f60cd29,
		0x666ea36f7879462e,
		0x0e0a77c19a07df2f,
	}

	// Modulus as big.Int for conversions and tests.
	modulus, _ = new(big.Int).SetString(
		"21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)
)

// Bits is the bit length of the modulus.
const Bits = 254

// Bytes is the canonical serialized size of an element.
const Bytes = 32

// Modulus returns a copy of the field modulus.
func Modulus() *big.Int { return new(big.Int).Set(modulus) }

// Zero returns the additive identity.
func Zero() Element { return Element{} }

// One returns the multiplicative identity.
func One() Element { return one }

// NewElement returns v reduced into the field, in Montgomery form.
func NewElement(v uint64) Element {
	var e Element
	e.SetUint64(v)
	return e
}

// SetUint64 sets e to v and returns e.
func (e *Element) SetUint64(v uint64) *Element {
	*e = Element{v}
	return e.toMont()
}

// SetInt64 sets e to v (negative values map to r - |v|) and returns e.
func (e *Element) SetInt64(v int64) *Element {
	if v >= 0 {
		return e.SetUint64(uint64(v))
	}
	e.SetUint64(uint64(-v))
	e.Neg(e)
	return e
}

// SetBigInt sets e to v mod r and returns e.
func (e *Element) SetBigInt(v *big.Int) *Element {
	var t big.Int
	t.Mod(v, modulus)
	*e = Element{}
	words := t.Bits()
	for i, w := range words {
		if i >= 4 {
			break
		}
		e[i] = uint64(w)
	}
	return e.toMont()
}

// SetZero sets e to 0 and returns e.
func (e *Element) SetZero() *Element { *e = Element{}; return e }

// SetOne sets e to 1 and returns e.
func (e *Element) SetOne() *Element { *e = one; return e }

// Set copies x into e and returns e.
func (e *Element) Set(x *Element) *Element { *e = *x; return e }

// IsZero reports whether e is the additive identity.
func (e *Element) IsZero() bool { return e[0]|e[1]|e[2]|e[3] == 0 }

// IsOne reports whether e is the multiplicative identity.
func (e *Element) IsOne() bool { return *e == one }

// Equal reports whether e and x represent the same field element.
func (e *Element) Equal(x *Element) bool { return *e == *x }

// BigInt returns the canonical (non-Montgomery) value of e.
func (e *Element) BigInt() *big.Int {
	c := e.fromMont()
	b := make([]byte, 32)
	binary.BigEndian.PutUint64(b[0:8], c[3])
	binary.BigEndian.PutUint64(b[8:16], c[2])
	binary.BigEndian.PutUint64(b[16:24], c[1])
	binary.BigEndian.PutUint64(b[24:32], c[0])
	return new(big.Int).SetBytes(b)
}

// Uint64 returns the canonical value of e truncated to 64 bits and a flag
// reporting whether e fits in a uint64.
func (e *Element) Uint64() (uint64, bool) {
	c := e.fromMont()
	return c[0], c[1]|c[2]|c[3] == 0
}

// String renders the canonical decimal value.
func (e Element) String() string { return e.BigInt().String() }

// MarshalBinary serializes e canonically as 32 big-endian bytes.
func (e *Element) MarshalBinary() ([]byte, error) {
	b := e.ToBytes()
	return b[:], nil
}

// UnmarshalBinary parses 32 big-endian bytes; values ≥ r are rejected.
func (e *Element) UnmarshalBinary(data []byte) error {
	if len(data) != Bytes {
		return fmt.Errorf("field: invalid length %d, want %d", len(data), Bytes)
	}
	var b [Bytes]byte
	copy(b[:], data)
	return e.SetBytes(b)
}

// ToBytes serializes the canonical value big-endian.
func (e *Element) ToBytes() [Bytes]byte {
	var b [Bytes]byte
	e.PutBytes(b[:])
	return b
}

// PutBytes writes ToBytes' encoding into dst[:Bytes], for callers that
// serialize many elements into one buffer.
func (e *Element) PutBytes(dst []byte) {
	c := e.fromMont()
	c.PutLimbs(dst)
}

// PutLimbs writes e's limbs big-endian into dst[:Bytes] as they stand,
// with no conversion out of Montgomery form. On limbs that
// FromMontgomery produced it writes the original element's PutBytes
// encoding; on a zero element it writes zeros, as PutBytes does.
func (e *Element) PutLimbs(dst []byte) {
	_ = dst[Bytes-1]
	binary.BigEndian.PutUint64(dst[0:8], e[3])
	binary.BigEndian.PutUint64(dst[8:16], e[2])
	binary.BigEndian.PutUint64(dst[16:24], e[1])
	binary.BigEndian.PutUint64(dst[24:32], e[0])
}

// FromMontgomery sets dst[i] to the canonical limbs of src[i]: the value
// itself, src[i]·R⁻¹, where src[i] holds its Montgomery form. dst may be
// src. The result sits in Element slots but is not in this package's
// domain, so Mul, Add and PutBytes must not read it. What may: any map
// that is linear over the integers and reduces mod r, which returns the
// canonical limbs of its Montgomery-form answer. Wide accumulation with
// integer coefficients followed by ReduceWide is such a map, and so is
// copying. PutLimbs then writes the bytes PutBytes would have written.
func FromMontgomery(dst, src []Element) {
	if len(dst) != len(src) {
		panic("field: FromMontgomery length mismatch")
	}
	for i := range src {
		dst[i] = src[i]
		redc(&dst[i])
	}
}

// ErrNotCanonical is returned when deserializing a value ≥ the modulus.
var ErrNotCanonical = errors.New("field: encoded value is not canonical (≥ modulus)")

// SetBytes sets e from a canonical big-endian encoding.
func (e *Element) SetBytes(b [Bytes]byte) error {
	var c Element
	c[3] = binary.BigEndian.Uint64(b[0:8])
	c[2] = binary.BigEndian.Uint64(b[8:16])
	c[1] = binary.BigEndian.Uint64(b[16:24])
	c[0] = binary.BigEndian.Uint64(b[24:32])
	if !lessThanModulus(&c) {
		return ErrNotCanonical
	}
	*e = *c.toMont()
	return nil
}

// SetBytesWide reduces an arbitrary big-endian byte string modulo r.
// It is used to map hash output into the field.
func (e *Element) SetBytesWide(b []byte) *Element {
	if len(b) > 2*Bytes {
		return e.SetBigInt(new(big.Int).SetBytes(b))
	}
	// Up to 64 bytes — every transcript challenge — read as hi·2^256 + lo
	// without big.Int. Below r, hi's limbs are the Montgomery form of
	// hi·R⁻¹, so times R³ they give hi·R = hi·2^256; lo times R² gives lo.
	var wide [2 * Bytes]byte
	copy(wide[2*Bytes-len(b):], b)
	hi, lo := reduced256(wide[:Bytes]), reduced256(wide[Bytes:])
	hi.Mul(&hi, &rCube)
	lo.Mul(&lo, &rSquare)
	return e.Add(&hi, &lo)
}

// rCube = R^3 mod r: the Montgomery product of R^2 with itself.
var rCube = *new(Element).Mul(&rSquare, &rSquare)

// reduced256 reads 32 big-endian bytes as limbs and reduces them below r
// (2^256 < 6r, so at most five subtractions).
func reduced256(b []byte) Element {
	var x Element
	for i := range x {
		x[3-i] = binary.BigEndian.Uint64(b[8*i:])
	}
	for !lessThanModulus(&x) {
		var c uint64
		x[0], c = bits.Sub64(x[0], q0, 0)
		x[1], c = bits.Sub64(x[1], q1, c)
		x[2], c = bits.Sub64(x[2], q2, c)
		x[3], _ = bits.Sub64(x[3], q3, c)
	}
	return x
}

// Rand sets e to a uniformly random field element using crypto/rand.
func (e *Element) Rand() *Element {
	var b [48]byte // 384 bits: negligible sampling bias after reduction
	if _, err := rand.Read(b[:]); err != nil {
		panic("field: crypto/rand failure: " + err.Error())
	}
	return e.SetBytesWide(b[:])
}

// lessThanModulus reports whether the non-Montgomery limbs c are < r.
func lessThanModulus(c *Element) bool {
	if c[3] != q3 {
		return c[3] < q3
	}
	if c[2] != q2 {
		return c[2] < q2
	}
	if c[1] != q1 {
		return c[1] < q1
	}
	return c[0] < q0
}

// Add sets e = x + y and returns e.
func (e *Element) Add(x, y *Element) *Element {
	var carry uint64
	e[0], carry = bits.Add64(x[0], y[0], 0)
	e[1], carry = bits.Add64(x[1], y[1], carry)
	e[2], carry = bits.Add64(x[2], y[2], carry)
	e[3], carry = bits.Add64(x[3], y[3], carry)
	// The modulus leaves two spare bits, so the sum cannot overflow 256 bits
	// when both inputs are reduced; carry is always 0 here.
	_ = carry
	e.reduce()
	return e
}

// Double sets e = 2x and returns e.
func (e *Element) Double(x *Element) *Element { return e.Add(x, x) }

// Sub sets e = x - y and returns e.
func (e *Element) Sub(x, y *Element) *Element {
	var borrow uint64
	e[0], borrow = bits.Sub64(x[0], y[0], 0)
	e[1], borrow = bits.Sub64(x[1], y[1], borrow)
	e[2], borrow = bits.Sub64(x[2], y[2], borrow)
	e[3], borrow = bits.Sub64(x[3], y[3], borrow)
	if borrow != 0 {
		var c uint64
		e[0], c = bits.Add64(e[0], q0, 0)
		e[1], c = bits.Add64(e[1], q1, c)
		e[2], c = bits.Add64(e[2], q2, c)
		e[3], _ = bits.Add64(e[3], q3, c)
	}
	return e
}

// Neg sets e = -x and returns e.
func (e *Element) Neg(x *Element) *Element {
	if x.IsZero() {
		return e.SetZero()
	}
	var borrow uint64
	e[0], borrow = bits.Sub64(q0, x[0], 0)
	e[1], borrow = bits.Sub64(q1, x[1], borrow)
	e[2], borrow = bits.Sub64(q2, x[2], borrow)
	e[3], _ = bits.Sub64(q3, x[3], borrow)
	return e
}

// reduce subtracts the modulus once if e ≥ r (inputs are < 2r).
func (e *Element) reduce() {
	if !lessThanModulus(e) {
		var b uint64
		e[0], b = bits.Sub64(e[0], q0, 0)
		e[1], b = bits.Sub64(e[1], q1, b)
		e[2], b = bits.Sub64(e[2], q2, b)
		e[3], _ = bits.Sub64(e[3], q3, b)
	}
}

// madd0 returns the high limb of a·b + c (the low limb is discarded — it
// is the cancelled Montgomery limb).
func madd0(a, b, c uint64) (hi uint64) {
	var carry, lo uint64
	hi, lo = bits.Mul64(a, b)
	_, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd1 returns a·b + c as (hi, lo).
func madd1(a, b, c uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd2 returns a·b + c + d as (hi, lo).
func madd2(a, b, c, d uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd3 returns a·b + c + d + e·2⁶⁴ as (hi, lo).
func madd3(a, b, c, d, e uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, e, carry)
	return
}

// Mul sets e = x·y (Montgomery product) and returns e.
//
// On amd64 with ADX and BMI2 the product is the MULX/ADCX/ADOX assembly
// of mul_amd64.s; elsewhere, and in the purego build, it is mulGo. Both
// compute the same canonical representative.
func (e *Element) Mul(x, y *Element) *Element {
	mul(e, x, y)
	return e
}

// Square sets e = x² and returns e: the assembly product of x with
// itself where Mul has one, squareGo otherwise.
func (e *Element) Square(x *Element) *Element {
	square(e, x)
	return e
}

// mulGo is the Go Montgomery product: a fully unrolled fixed-4-limb CIOS
// with the "no-carry" lazy-reduction window. Because the modulus's top
// limb q3 < 2⁶², the interleaved accumulator never overflows four limbs,
// so the fifth CIOS limb and its per-round carry bookkeeping disappear and
// the whole product lives in registers. One conditional subtraction at
// the end restores the canonical (< r) representative, keeping results
// bit-identical to MulGeneric. The assembly runs the same algorithm.
func mulGo(e, x, y *Element) {
	var t0, t1, t2, t3 uint64
	var c0, c1, c2 uint64
	{
		// round 0
		v := x[0]
		c1, c0 = bits.Mul64(v, y[0])
		m := c0 * qInvNeg
		c2 = madd0(m, q0, c0)
		c1, c0 = madd1(v, y[1], c1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd1(v, y[2], c1)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd1(v, y[3], c1)
		t3, t2 = madd3(m, q3, c0, c2, c1)
	}
	{
		// round 1
		v := x[1]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * qInvNeg
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		t3, t2 = madd3(m, q3, c0, c2, c1)
	}
	{
		// round 2
		v := x[2]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * qInvNeg
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		t3, t2 = madd3(m, q3, c0, c2, c1)
	}
	{
		// round 3
		v := x[3]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * qInvNeg
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		t3, t2 = madd3(m, q3, c0, c2, c1)
	}
	e[0], e[1], e[2], e[3] = t0, t1, t2, t3
	e.reduce()
}

// squareGo is the Go squaring: the six symmetric partial products
// x[i]·x[j] (i<j) are computed once and doubled by shifting, then the
// four diagonal squares are added and the 512-bit result
// Montgomery-reduced in four unrolled rounds — 26 limb multiplies against
// mulGo's 32.
func squareGo(e, x *Element) {
	// Cross products at their column positions; carries between columns
	// belong to the next column, so the two Add64 chains are exact.
	var p1, p2, p3, p4, p5, p6, p7 uint64
	var c uint64
	h01, l01 := bits.Mul64(x[0], x[1])
	h02, l02 := bits.Mul64(x[0], x[2])
	h03, l03 := bits.Mul64(x[0], x[3])
	h12, l12 := bits.Mul64(x[1], x[2])
	h13, l13 := bits.Mul64(x[1], x[3])
	h23, l23 := bits.Mul64(x[2], x[3])

	p1 = l01
	p2, c = bits.Add64(h01, l02, 0)
	p3, c = bits.Add64(h02, l03, c)
	p4, c = bits.Add64(h03, h12, c)
	p5, c = bits.Add64(h13, l23, c)
	p6, c = bits.Add64(h23, 0, c)
	_ = c // cross sum < 2^448, cannot carry out of p6
	p3, c = bits.Add64(p3, l12, 0)
	p4, c = bits.Add64(p4, l13, c)
	p5, c = bits.Add64(p5, 0, c)
	p6, c = bits.Add64(p6, 0, c)
	p7 = c

	// Double the off-diagonal sum (x² = diag + 2·cross).
	p7 = p7<<1 | p6>>63
	p6 = p6<<1 | p5>>63
	p5 = p5<<1 | p4>>63
	p4 = p4<<1 | p3>>63
	p3 = p3<<1 | p2>>63
	p2 = p2<<1 | p1>>63
	p1 <<= 1

	// Add the diagonals x[i]² at columns 2i, 2i+1.
	var t [8]uint64
	var d uint64
	hi, lo := bits.Mul64(x[0], x[0])
	t[0] = lo
	t[1], d = bits.Add64(p1, hi, 0)
	hi, lo = bits.Mul64(x[1], x[1])
	t[2], d = bits.Add64(p2, lo, d)
	t[3], d = bits.Add64(p3, hi, d)
	hi, lo = bits.Mul64(x[2], x[2])
	t[4], d = bits.Add64(p4, lo, d)
	t[5], d = bits.Add64(p5, hi, d)
	hi, lo = bits.Mul64(x[3], x[3])
	t[6], d = bits.Add64(p6, lo, d)
	t[7], _ = bits.Add64(p7, hi, d)

	// Montgomery reduction (SOS): four rounds of t += m·q·2^{64i}; the
	// ripple out of each round cannot overflow t[7] because the final
	// value (x² + Σmᵢ·q·2^{64i})/2²⁵⁶ < 2r < 2²⁵⁵.
	{
		m := t[0] * qInvNeg
		cc := madd0(m, q0, t[0])
		cc, t[1] = madd2(m, q1, cc, t[1])
		cc, t[2] = madd2(m, q2, cc, t[2])
		cc, t[3] = madd2(m, q3, cc, t[3])
		t[4], d = bits.Add64(t[4], cc, 0)
		t[5], d = bits.Add64(t[5], 0, d)
		t[6], d = bits.Add64(t[6], 0, d)
		t[7], _ = bits.Add64(t[7], 0, d)
	}
	{
		m := t[1] * qInvNeg
		cc := madd0(m, q0, t[1])
		cc, t[2] = madd2(m, q1, cc, t[2])
		cc, t[3] = madd2(m, q2, cc, t[3])
		cc, t[4] = madd2(m, q3, cc, t[4])
		t[5], d = bits.Add64(t[5], cc, 0)
		t[6], d = bits.Add64(t[6], 0, d)
		t[7], _ = bits.Add64(t[7], 0, d)
	}
	{
		m := t[2] * qInvNeg
		cc := madd0(m, q0, t[2])
		cc, t[3] = madd2(m, q1, cc, t[3])
		cc, t[4] = madd2(m, q2, cc, t[4])
		cc, t[5] = madd2(m, q3, cc, t[5])
		t[6], d = bits.Add64(t[6], cc, 0)
		t[7], _ = bits.Add64(t[7], 0, d)
	}
	{
		m := t[3] * qInvNeg
		cc := madd0(m, q0, t[3])
		cc, t[4] = madd2(m, q1, cc, t[4])
		cc, t[5] = madd2(m, q2, cc, t[5])
		cc, t[6] = madd2(m, q3, cc, t[6])
		t[7], _ = bits.Add64(t[7], cc, 0)
	}
	e[0], e[1], e[2], e[3] = t[4], t[5], t[6], t[7]
	e.reduce()
}

// toMont converts canonical limbs to Montgomery form in place.
func (e *Element) toMont() *Element { return e.Mul(e, &rSquare) }

// fromMont returns the canonical (non-Montgomery) limbs of e: e·R⁻¹, the
// Montgomery product of e with 1, computed by reduction alone (redc).
func (e *Element) fromMont() Element {
	r := *e
	redc(&r)
	return r
}

// redcGo sets e = e·R⁻¹ mod r: four Montgomery reduction rounds of
// e + m·r shifted down one limb, with no x·y product to accumulate. The
// top limb stays below q3 + 1 each round, so no fifth limb is needed.
// Both compute (e + M·r)/R for the same M, so after the final
// conditional subtraction it agrees with mulGo(·, e, 1).
func redcGo(e *Element) {
	t0, t1, t2, t3 := e[0], e[1], e[2], e[3]
	for i := 0; i < 4; i++ {
		m := t0 * qInvNeg
		c := madd0(m, q0, t0)
		c, t0 = madd2(m, q1, c, t1)
		c, t1 = madd2(m, q2, c, t2)
		t3, t2 = madd2(m, q3, c, t3)
	}
	e[0], e[1], e[2], e[3] = t0, t1, t2, t3
	e.reduce()
}

// rMinusTwo is the Fermat exponent r−2 as little-endian limbs (only the
// low limb differs from the modulus: q0 ends in …0001, so no borrow).
var rMinusTwo = [4]uint64{q0 - 2, q1, q2, q3}

// Inverse sets e = x^{-1} using Fermat's little theorem (x^{r−2}) and
// returns e. The inverse of zero is defined as zero.
//
// The exponentiation is a fixed chain over the hardcoded limbs of r−2:
// a 4-bit window table (15 stack elements) followed by 252 squarings and
// one table multiply per non-zero nibble — no big.Int, no allocation,
// and every squaring goes through Square. The result is the same
// canonical representative the big.Int ladder produces (InverseGeneric),
// which the differential tests pin.
func (e *Element) Inverse(x *Element) *Element {
	if x.IsZero() {
		return e.SetZero()
	}
	var tbl [15]Element // tbl[i] = x^{i+1}
	tbl[0] = *x
	tbl[1].Square(x)
	for i := 2; i < 15; i++ {
		tbl[i].Mul(&tbl[i-1], x)
	}
	res := one
	started := false
	for w := 3; w >= 0; w-- {
		limb := rMinusTwo[w]
		for s := 60; s >= 0; s -= 4 {
			if started {
				res.Square(&res)
				res.Square(&res)
				res.Square(&res)
				res.Square(&res)
			}
			if nib := (limb >> uint(s)) & 0xf; nib != 0 {
				res.Mul(&res, &tbl[nib-1])
				started = true
			}
		}
	}
	*e = res
	return e
}

// Lerp sets e = (1-t)·a + t·b — the sum-check table-update primitive
// (line 6 of Algorithm 1 in the paper) — and returns e.
func (e *Element) Lerp(t, a, b *Element) *Element {
	var d Element
	d.Sub(b, a)
	d.Mul(&d, t)
	return e.Add(a, &d)
}

// Vector convenience helpers ------------------------------------------------

// RandVector returns n uniformly random elements.
func RandVector(n int) []Element {
	v := make([]Element, n)
	for i := range v {
		v[i].Rand()
	}
	return v
}

// VectorSum returns Σ v[i].
func VectorSum(v []Element) Element {
	var s Element
	for i := range v {
		s.Add(&s, &v[i])
	}
	return s
}

// InnerProduct returns Σ a[i]·b[i]. The slices must have equal length.
func InnerProduct(a, b []Element) Element {
	var s, t Element
	for i := range a {
		t.Mul(&a[i], &b[i])
		s.Add(&s, &t)
	}
	return s
}

// VectorEqual reports whether two vectors are element-wise equal.
func VectorEqual(a, b []Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
