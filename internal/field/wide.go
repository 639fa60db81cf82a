package field

import "math/bits"

// Wide-accumulate kernel for sums Σ vᵢ·xᵢ whose coefficients vᵢ fit in one
// 64-bit word — the shape of the linear-time encoder's sparse rows, whose
// coefficients are sampled as uint64s. A Montgomery Mul plus a reduced Add
// per term costs 16 limb multiplies and two conditional subtractions;
// MulAccSmall instead adds the exact 5-limb product v·x into a 6-limb
// accumulator (4 limb multiplies, no reduction), and ReduceWide reduces the
// whole sum once per output.
//
// Because x is held in Montgomery form (x̄ = x·R mod r) and v is an integer,
// Σ vᵢ·x̄ᵢ ≡ (Σ vᵢ·xᵢ)·R (mod r): the reduced accumulator *is* the
// Montgomery form of the sum, the same canonical element that
//
//	t.Mul(&c, &x); s.Add(&s, &t)   // c = NewElement(v)
//
// produces term by term. The differential tests pin that equality. The
// reduction is linear over the integers too, so on canonical limbs (see
// FromMontgomery) the same sum returns the canonical limbs of the result.
//
// MulAccSmall and ReduceWide define the arithmetic. The encoder's row
// kernel runs it one call per row, with the accumulator in registers
// (MULX assembly on amd64, a register-local Go loop elsewhere), and its
// tests use this pair as the reference.

// MaxWideTerms bounds the terms one Wide may accumulate before ReduceWide.
// Each term is < 2⁶⁴·r < 2³¹⁸, so 255 terms stay below 2³²⁶ — inside the
// six limbs and inside ReduceWide's precondition (see there). It matches
// the encoder's one-byte row-weight bound.
const MaxWideTerms = 255

// HasADX reports whether this process runs Mul, Square and the
// conversions out of Montgomery form on the MULX/ADCX/ADOX assembly (see
// useADX). Assembly kernels elsewhere, such as the encoder's row kernel
// built on this file's accumulator, key their own path switch off it
// rather than probing CPUID a second time.
func HasADX() bool { return useADX }

// Wide is an unreduced accumulator: six little-endian 64-bit limbs holding
// an exact integer sum. The zero value is an empty sum.
type Wide [6]uint64

// Barrett constant μ = ⌊2³³³/r⌋ (80 bits) for ReduceWide.
const (
	mu0 uint64 = 0xe8c4c474094f560e
	mu1 uint64 = 0x000000000000a948
)

// MulAccSmall adds v·x to the accumulator, where x is a reduced element
// (limbs < r). The product is exact; nothing is reduced.
func (a *Wide) MulAccSmall(v uint64, x *Element) {
	h0, l0 := bits.Mul64(v, x[0])
	h1, l1 := bits.Mul64(v, x[1])
	h2, l2 := bits.Mul64(v, x[2])
	h3, l3 := bits.Mul64(v, x[3])
	// The product's limbs are (l0, h0+l1, h1+l2, h2+l3, h3): add the low
	// halves in one carry chain and the high halves, shifted one limb, in
	// a second.
	var c uint64
	a[0], c = bits.Add64(a[0], l0, 0)
	a[1], c = bits.Add64(a[1], l1, c)
	a[2], c = bits.Add64(a[2], l2, c)
	a[3], c = bits.Add64(a[3], l3, c)
	a[4], c = bits.Add64(a[4], h3, c)
	a[5] += c
	a[1], c = bits.Add64(a[1], h0, 0)
	a[2], c = bits.Add64(a[2], h1, c)
	a[3], c = bits.Add64(a[3], h2, c)
	a[4], c = bits.Add64(a[4], 0, c)
	a[5] += c
}

// ReduceWide sets e = a mod r and returns e. It requires a < 2³³¹, which
// any sum of at most MaxWideTerms MulAccSmall terms satisfies.
//
// Barrett reduction with k = 253, m = 80: the quotient estimate
// q̂ = ⌊⌊a/2ᵏ⌋·μ/2ᵐ⌋ never exceeds ⌊a/r⌋ and undershoots a/r by less
// than 2ᵏ/r + a/2ᵏ⁺ᵐ < 0.67 + 0.25 < 1, so a − q̂·r lies in [0, 2r) and
// one conditional subtraction finishes. The whole reduction is 11 limb
// multiplies, against 16 for a Montgomery REDC plus 16 more to undo its
// R⁻¹ factor.
func (e *Element) ReduceWide(a *Wide) *Element {
	// A = ⌊a/2²⁵³⌋ < 2⁷⁸ in two limbs.
	a0 := a[3]>>61 | a[4]<<3
	a1 := a[4]>>61 | a[5]<<3
	// A·μ; only bits ≥ 80 matter, and the lowest limb of a0·μ0 cannot
	// carry into them (nothing else lands in limb 0).
	h00, _ := bits.Mul64(a0, mu0)
	h01, l01 := bits.Mul64(a0, mu1)
	h10, l10 := bits.Mul64(a1, mu0)
	h11, l11 := bits.Mul64(a1, mu1)
	var c uint64
	p1, c := bits.Add64(h00, l01, 0)
	p2, c := bits.Add64(h01, l11, c)
	p3 := h11 + c
	p1, c = bits.Add64(p1, l10, 0)
	p2, c = bits.Add64(p2, h10, c)
	p3 += c
	qh0 := p1>>16 | p2<<48
	qh1 := p2>>16 | p3<<48
	// q̂·r mod 2²⁵⁶ (the remainder is < 2r < 2²⁵⁶, so the low limbs suffice).
	t1, t0 := bits.Mul64(qh0, q0)
	var t2, t3 uint64
	t2, t1 = madd1(qh0, q1, t1)
	t3, t2 = madd1(qh0, q2, t2)
	t3 += qh0 * q3
	u2, u1 := bits.Mul64(qh1, q0)
	var u3 uint64
	u3, u2 = madd1(qh1, q1, u2)
	u3 += qh1 * q2
	t1, c = bits.Add64(t1, u1, 0)
	t2, c = bits.Add64(t2, u2, c)
	t3, _ = bits.Add64(t3, u3, c)
	// a − q̂·r.
	var b uint64
	e[0], b = bits.Sub64(a[0], t0, 0)
	e[1], b = bits.Sub64(a[1], t1, b)
	e[2], b = bits.Sub64(a[2], t2, b)
	e[3], _ = bits.Sub64(a[3], t3, b)
	e.reduce()
	return e
}
