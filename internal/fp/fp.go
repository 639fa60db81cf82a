// Package fp implements the BN254 *base* field F_p,
//
//	p = 21888242871839275222246405745257275088696311157297823662689037894645226208583,
//
// used only by the elliptic-curve group that realizes the MSM workload of
// the Libsnark/Bellperson baselines. BatchZK's own protocol works entirely
// in the scalar field (package field); G1 points live over F_p so that the
// curve group has prime order r and scalar arithmetic mod r is the honest
// group exponent arithmetic.
//
// The representation mirrors package field (4×64-limb Montgomery form).
// The hot paths are the same fully unrolled no-carry CIOS multiply,
// dedicated squaring, and fixed-chain Fermat inversion as package field —
// the batch-affine Pippenger buckets in internal/msm hammer these, so the
// base field gets the full ALU-floor treatment too. The hardcoded
// Montgomery constants are re-derived and verified at init time.
package fp

import (
	"crypto/rand"
	"encoding/binary"
	"math/big"
	"math/bits"
)

// Element is an F_p element in Montgomery form (little-endian limbs).
type Element [4]uint64

// Limbs of the modulus p (little-endian) and the Montgomery constant
// -p⁻¹ mod 2⁶⁴, hardcoded so the unrolled code reads immediates instead
// of globals; init re-derives and verifies them against the decimal p.
const (
	q0 uint64 = 0x3c208c16d87cfd47
	q1 uint64 = 0x97816a916871ca8d
	q2 uint64 = 0xb85045b68181585d
	q3 uint64 = 0x30644e72e131a029

	qInvNeg uint64 = 0x87d20782e4866389
)

var (
	// modulus is p as a big integer.
	modulus, _ = new(big.Int).SetString(
		"21888242871839275222246405745257275088696311157297823662689037894645226208583", 10)

	rSquare Element // R² mod p
	one     Element // R mod p

	// pMinusTwo is the Fermat exponent p−2 as little-endian limbs
	// (p is odd with q0 ending …47, so only the low limb changes).
	pMinusTwo = [4]uint64{q0 - 2, q1, q2, q3}
)

func init() {
	words := modulus.Bits()
	for i, want := range [4]uint64{q0, q1, q2, q3} {
		if uint64(words[i]) != want {
			panic("fp: hardcoded modulus limb disagrees with decimal p")
		}
	}
	// Newton iteration for the 64-bit Montgomery constant.
	inv := q0
	for i := 0; i < 5; i++ {
		inv *= 2 - q0*inv
	}
	if -inv != qInvNeg {
		panic("fp: hardcoded qInvNeg disagrees with Newton derivation")
	}

	setFromBig := func(dst *Element, v *big.Int) {
		var t big.Int
		t.Mod(v, modulus)
		*dst = Element{}
		for i, w := range t.Bits() {
			if i < 4 {
				dst[i] = uint64(w)
			}
		}
	}
	R := new(big.Int).Lsh(big.NewInt(1), 256)
	setFromBig(&one, R)
	R2 := new(big.Int).Mul(R, R)
	setFromBig(&rSquare, R2)
}

// Modulus returns a copy of p.
func Modulus() *big.Int { return new(big.Int).Set(modulus) }

// One returns the multiplicative identity.
func One() Element { return one }

// NewElement returns v as a field element.
func NewElement(v uint64) Element {
	var e Element
	e.SetUint64(v)
	return e
}

// SetUint64 sets e to v and returns e.
func (e *Element) SetUint64(v uint64) *Element {
	*e = Element{v}
	return e.Mul(e, &rSquare)
}

// SetBigInt sets e to v mod p and returns e.
func (e *Element) SetBigInt(v *big.Int) *Element {
	var t big.Int
	t.Mod(v, modulus)
	*e = Element{}
	for i, w := range t.Bits() {
		if i < 4 {
			e[i] = uint64(w)
		}
	}
	return e.Mul(e, &rSquare)
}

// BigInt returns the canonical value of e.
func (e *Element) BigInt() *big.Int {
	var c Element
	c.Mul(e, &Element{1})
	b := make([]byte, 32)
	binary.BigEndian.PutUint64(b[0:8], c[3])
	binary.BigEndian.PutUint64(b[8:16], c[2])
	binary.BigEndian.PutUint64(b[16:24], c[1])
	binary.BigEndian.PutUint64(b[24:32], c[0])
	return new(big.Int).SetBytes(b)
}

// IsZero reports whether e is zero.
func (e *Element) IsZero() bool { return e[0]|e[1]|e[2]|e[3] == 0 }

// IsOne reports whether e is one.
func (e *Element) IsOne() bool { return *e == one }

// Equal reports element equality.
func (e *Element) Equal(x *Element) bool { return *e == *x }

// Rand sets e to a uniform random element.
func (e *Element) Rand() *Element {
	var b [48]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("fp: crypto/rand failure: " + err.Error())
	}
	return e.SetBigInt(new(big.Int).SetBytes(b[:]))
}

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

func (e *Element) reduce() {
	if !lessThanModulus(e) {
		var b uint64
		e[0], b = bits.Sub64(e[0], q0, 0)
		e[1], b = bits.Sub64(e[1], q1, b)
		e[2], b = bits.Sub64(e[2], q2, b)
		e[3], _ = bits.Sub64(e[3], q3, b)
	}
}

// Add sets e = x + y and returns e.
func (e *Element) Add(x, y *Element) *Element {
	var c uint64
	e[0], c = bits.Add64(x[0], y[0], 0)
	e[1], c = bits.Add64(x[1], y[1], c)
	e[2], c = bits.Add64(x[2], y[2], c)
	e[3], _ = bits.Add64(x[3], y[3], c)
	e.reduce()
	return e
}

// Double sets e = 2x and returns e.
func (e *Element) Double(x *Element) *Element { return e.Add(x, x) }

// Sub sets e = x − y and returns e.
func (e *Element) Sub(x, y *Element) *Element {
	var b uint64
	e[0], b = bits.Sub64(x[0], y[0], 0)
	e[1], b = bits.Sub64(x[1], y[1], b)
	e[2], b = bits.Sub64(x[2], y[2], b)
	e[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		e[0], c = bits.Add64(e[0], q0, 0)
		e[1], c = bits.Add64(e[1], q1, c)
		e[2], c = bits.Add64(e[2], q2, c)
		e[3], _ = bits.Add64(e[3], q3, c)
	}
	return e
}

// Neg sets e = −x and returns e.
func (e *Element) Neg(x *Element) *Element {
	if x.IsZero() {
		*e = Element{}
		return e
	}
	var b uint64
	e[0], b = bits.Sub64(q0, x[0], 0)
	e[1], b = bits.Sub64(q1, x[1], b)
	e[2], b = bits.Sub64(q2, x[2], b)
	e[3], _ = bits.Sub64(q3, x[3], b)
	return e
}

// madd0 returns the high limb of a·b + c (the low limb is the cancelled
// Montgomery limb).
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

// Mul sets e = x·y and returns e: the same fully unrolled no-carry CIOS
// as the scalar field (p's top limb is also < 2⁶², so the four-limb
// lazy-reduction window applies).
func (e *Element) Mul(x, y *Element) *Element {
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
	return e
}

// Square sets e = x² and returns e, sharing the six symmetric partial
// products instead of delegating to Mul (see field.Element.Square for the
// carry analysis; p has the same two spare top bits as r).
func (e *Element) Square(x *Element) *Element {
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
	_ = c
	p3, c = bits.Add64(p3, l12, 0)
	p4, c = bits.Add64(p4, l13, c)
	p5, c = bits.Add64(p5, 0, c)
	p6, c = bits.Add64(p6, 0, c)
	p7 = c

	p7 = p7<<1 | p6>>63
	p6 = p6<<1 | p5>>63
	p5 = p5<<1 | p4>>63
	p4 = p4<<1 | p3>>63
	p3 = p3<<1 | p2>>63
	p2 = p2<<1 | p1>>63
	p1 <<= 1

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
	return e
}

// Inverse sets e = x⁻¹ = x^{p−2} (zero maps to zero) and returns e,
// using the same fixed 4-bit-window chain over hardcoded exponent limbs
// as field.Element.Inverse — no big.Int, no allocation.
func (e *Element) Inverse(x *Element) *Element {
	if x.IsZero() {
		*e = Element{}
		return e
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
		limb := pMinusTwo[w]
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

// BatchInverseWithScratch sets dst[i] = v[i]⁻¹ for all i with Montgomery's
// trick — one inversion plus 3(n−1) multiplications — through a caller-
// provided prefix buffer (len(scratch) ≥ len(v)), so the batch-affine MSM
// bucket loop can run allocation-free. Zero entries invert to zero and do
// not disturb the others. dst and v may alias; scratch must not alias
// either and is clobbered.
func BatchInverseWithScratch(dst, v, scratch []Element) {
	if len(dst) != len(v) {
		panic("fp: BatchInverse length mismatch")
	}
	n := len(v)
	if n == 0 {
		return
	}
	if len(scratch) < n {
		panic("fp: BatchInverse scratch too short")
	}
	prefix := scratch[:n]
	acc := one
	for i := 0; i < n; i++ {
		prefix[i] = acc
		if !v[i].IsZero() {
			acc.Mul(&acc, &v[i])
		}
	}
	var inv Element
	inv.Inverse(&acc)
	for i := n - 1; i >= 0; i-- {
		if v[i].IsZero() {
			dst[i] = Element{}
			continue
		}
		vi := v[i] // copy before overwriting when aliased
		dst[i].Mul(&inv, &prefix[i])
		inv.Mul(&inv, &vi)
	}
}
