package field

// Batch operations used on the hot paths of provers and verifiers.

// BatchInverse sets dst[i] = v[i]^{-1} for all i using Montgomery's trick:
// one field inversion plus 3(n−1) multiplications instead of n inversions.
// Zero entries invert to zero (matching Inverse) and do not disturb the
// other entries. dst and v may alias.
func BatchInverse(dst, v []Element) {
	if len(v) == 0 {
		if len(dst) != len(v) {
			panic("field: BatchInverse length mismatch")
		}
		return
	}
	BatchInverseWithScratch(dst, v, make([]Element, len(v)))
}

// BatchInverseWithScratch is BatchInverse with a caller-provided prefix
// buffer (len(scratch) ≥ len(v)), so hot loops can reuse an arena instead
// of allocating per call. scratch must not alias dst or v; its contents
// are clobbered.
func BatchInverseWithScratch(dst, v, scratch []Element) {
	if len(dst) != len(v) {
		panic("field: BatchInverse length mismatch")
	}
	n := len(v)
	if n == 0 {
		return
	}
	if len(scratch) < n {
		panic("field: BatchInverse scratch too short")
	}
	// Prefix products over the non-zero entries.
	prefix := scratch[:n]
	acc := One()
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
