package encoder

import (
	"math/bits"

	"batchzk/internal/field"
)

// The row kernel: one sparse row's inner product with x, accumulated wide
// (four limb multiplies per non-zero, no reduction) and reduced once. On
// amd64 with BMI2 and ADX, rowInto is the MULX/ADCX/ADOX assembly of
// row_amd64.s, one call per row with the six-limb accumulator in
// registers and the reduction inline; elsewhere, in the purego build, and
// as the assembly's differential oracle it is rowIntoGo.

// rowIntoGo sets *out to the inner product of one sparse row with x: the
// sum of field.Wide.MulAccSmall over the row, reduced by ReduceWide, with
// the accumulator in locals instead of a call and a load and store of six
// limbs per term. The row holds at most field.MaxWideTerms entries.
func rowIntoGo(out *field.Element, row []Entry, x []field.Element) {
	var a0, a1, a2, a3, a4, a5 uint64
	for _, e := range row {
		xi := &x[e.Col]
		h0, l0 := bits.Mul64(e.Coeff, xi[0])
		h1, l1 := bits.Mul64(e.Coeff, xi[1])
		h2, l2 := bits.Mul64(e.Coeff, xi[2])
		h3, l3 := bits.Mul64(e.Coeff, xi[3])
		// The product's limbs are (l0, h0+l1, h1+l2, h2+l3, h3): the low
		// halves and h3 on one carry chain, the other high halves,
		// shifted one limb, on a second.
		var c uint64
		a0, c = bits.Add64(a0, l0, 0)
		a1, c = bits.Add64(a1, l1, c)
		a2, c = bits.Add64(a2, l2, c)
		a3, c = bits.Add64(a3, l3, c)
		a4, c = bits.Add64(a4, h3, c)
		a5 += c
		a1, c = bits.Add64(a1, h0, 0)
		a2, c = bits.Add64(a2, h1, c)
		a3, c = bits.Add64(a3, h2, c)
		a4, c = bits.Add64(a4, 0, c)
		a5 += c
	}
	acc := field.Wide{a0, a1, a2, a3, a4, a5}
	out.ReduceWide(&acc)
}
