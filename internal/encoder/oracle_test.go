package encoder

import (
	"math/rand"
	"testing"

	"batchzk/internal/field"
)

// encodeRecursive is the recursive definition of the code (Figure 3 of
// the paper) with the term-by-term arithmetic the wide kernel replaced:
// one Montgomery Mul by field.NewElement(coeff) and one reduced Add per
// non-zero, and fresh slices at every level. It is the oracle for
// EncodeInto and the cone.
func encodeRecursive(e *Encoder, stage int, x []field.Element) []field.Element {
	if stage == len(e.stages) {
		out := make([]field.Element, 0, RateInv*len(x))
		for i := 0; i < RateInv; i++ {
			out = append(out, x...)
		}
		return out
	}
	s := e.stages[stage]
	w := encodeRecursive(e, stage+1, mulVecRef(s.First, x))
	v := mulVecRef(s.Second, w)
	out := make([]field.Element, 0, RateInv*len(x))
	out = append(out, x...)
	out = append(out, w...)
	return append(out, v...)
}

func mulVecRef(m *SparseMatrix, x []field.Element) []field.Element {
	out := make([]field.Element, m.OutDim)
	var c, t field.Element
	for j, row := range m.Rows {
		for _, en := range row {
			c.SetUint64(en.Coeff)
			t.Mul(&c, &x[en.Col])
			out[j].Add(&out[j], &t)
		}
	}
	return out
}

func TestMulVecMatchesMulAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// The heaviest rows the encoder allows, at the largest coefficients
	// and largest reduced limbs, plus a random matrix.
	heavy := &SparseMatrix{InDim: MaxRowWeight, OutDim: 2, Rows: make([][]Entry, 2)}
	for j := range heavy.Rows {
		for c := 0; c < MaxRowWeight; c++ {
			heavy.Rows[j] = append(heavy.Rows[j], Entry{Col: c, Coeff: ^uint64(0) - uint64(j)})
		}
	}
	var top field.Element
	top.SetInt64(-1)
	maxX := make([]field.Element, MaxRowWeight)
	for i := range maxX {
		maxX[i] = top
	}
	for _, tc := range []struct {
		m *SparseMatrix
		x []field.Element
	}{
		{heavy, maxX},
		{heavy, seededMsg(rng, MaxRowWeight)},
		{sampleMatrix(rng, 300, 77, 1, MaxRowWeight), seededMsg(rng, 300)},
	} {
		out := field.RandVector(tc.m.OutDim) // MulVecInto overwrites
		if err := tc.m.MulVecInto(out, tc.x); err != nil {
			t.Fatal(err)
		}
		if !field.VectorEqual(out, mulVecRef(tc.m, tc.x)) {
			t.Fatalf("%d×%d: wide mat-vec differs from Mul+Add", tc.m.OutDim, tc.m.InDim)
		}
	}
}

// TestConeMatchesFullEncodingEveryPosition: for every codeword position
// at 2^8, the cone of that one position reproduces it; at 2^12 every
// position is covered by cones of 64 random positions, the opening's
// shape. Scratch buffers start out random so skipped work cannot hide
// behind zeros.
func TestConeMatchesFullEncodingEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	stale := seededMsg(rng, 1<<14)
	check := func(e *Encoder, x, full []field.Element, positions []int) {
		t.Helper()
		c, err := e.Cone(positions)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]field.Element, e.CodewordLen())
		copy(dst, stale)
		if err := c.EncodeInto(dst, x); err != nil {
			t.Fatal(err)
		}
		for _, j := range positions {
			if dst[j] != full[j] {
				t.Fatalf("n=%d: cone of %d positions wrong at %d", e.MessageLen(), len(positions), j)
			}
		}
	}
	e := mustEncoder(t, 1<<8)
	x := seededMsg(rng, e.MessageLen())
	full := encodeRecursive(e, 0, x)
	for j := range full {
		check(e, x, full, []int{j})
	}
	e = mustEncoder(t, 1<<12)
	x = seededMsg(rng, e.MessageLen())
	full = encodeRecursive(e, 0, x)
	perm := rng.Perm(e.CodewordLen())
	for len(perm) > 0 {
		check(e, x, full, perm[:64])
		perm = perm[64:]
	}
	check(e, x, full, nil)
	if _, err := e.Cone([]int{e.CodewordLen()}); err == nil {
		t.Fatal("accepted an out-of-range position")
	}
}

// TestConeSkipsUnneededWork: a cone of message positions computes
// nothing, and a typical opening cone skips most of the top-level parity.
func TestConeSkipsUnneededWork(t *testing.T) {
	e := mustEncoder(t, 512)
	c, _ := e.Cone([]int{0, 5, 511})
	if len(c.parity) != 0 {
		t.Fatalf("message-only cone reaches %d levels", len(c.parity))
	}
	rng := rand.New(rand.NewSource(3))
	pos := make([]int, 64)
	for i := range pos {
		pos[i] = rng.Intn(e.CodewordLen())
	}
	c, _ = e.Cone(pos)
	if len(c.parity) != e.NumStages() || len(c.parity[0]) > 64 {
		t.Fatalf("cone shape: %d levels, %d top parity rows", len(c.parity), len(c.parity[0]))
	}
}

// TestEncodeZeroAllocations gates the steady-state encoder: the mat-vec,
// a full in-place encoding and a cone encoding touch no heap.
func TestEncodeZeroAllocations(t *testing.T) {
	e := mustEncoder(t, 512)
	x := field.RandVector(512)
	dst := make([]field.Element, e.CodewordLen())
	m := e.Stages()[0].Second
	out := make([]field.Element, m.OutDim)
	in := field.RandVector(m.InDim)
	c, _ := e.Cone([]int{3, 700, 1600, 2047})
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"MulVecInto", func() { _ = m.MulVecInto(out, in) }},
		{"EncodeInto", func() { _ = e.EncodeInto(dst, x) }},
		{"Cone.EncodeInto", func() { _ = c.EncodeInto(dst, x) }},
	} {
		if n := testing.AllocsPerRun(20, tc.fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", tc.name, n)
		}
	}
}

// The 512-column shape is one row of the 2^16-gate protocol's committed
// matrix (2^17 padded wires as 256 × 512).

func BenchmarkMulVec(b *testing.B) {
	e := mustEncoder(b, 512)
	m := e.Stages()[0].Second
	x := field.RandVector(m.InDim)
	out := make([]field.Element, m.OutDim)
	eachPath(b, func(b *testing.B) {
		b.ReportMetric(float64(m.NumNonZeros()), "nnz")
		for i := 0; i < b.N; i++ {
			_ = m.MulVecInto(out, x)
		}
	})
}

func BenchmarkEncodeInto(b *testing.B) {
	e := mustEncoder(b, 512)
	x := field.RandVector(512)
	dst := make([]field.Element, e.CodewordLen())
	eachPath(b, func(b *testing.B) {
		b.ReportMetric(float64(e.WorkNonZeros()), "nnz")
		for i := 0; i < b.N; i++ {
			_ = e.EncodeInto(dst, x)
		}
	})
}
