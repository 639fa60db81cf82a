package pcs

import (
	"errors"
	"testing"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

func testParams(logN int) Params {
	p := NewParams(logN)
	p.NumOpenings = 16 // keep unit tests fast; soundness knobs tested separately
	return p
}

func TestNewParamsLayout(t *testing.T) {
	for logN := 8; logN <= 14; logN++ {
		p := NewParams(logN)
		if err := p.Validate(); err != nil {
			t.Fatalf("logN=%d: %v", logN, err)
		}
		if p.NumRows*p.NumCols != 1<<logN {
			t.Fatalf("logN=%d: layout %dx%d", logN, p.NumRows, p.NumCols)
		}
		if p.NumCols < p.Enc.BaseSize {
			t.Fatalf("logN=%d: cols below encoder base", logN)
		}
	}
}

func TestValidate(t *testing.T) {
	p := testParams(8)
	bad := p
	bad.NumRows = 3
	if bad.Validate() == nil {
		t.Fatal("accepted non-power-of-two rows")
	}
	bad = p
	bad.NumCols = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero cols")
	}
	bad = p
	bad.NumOpenings = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero openings")
	}
}

func TestCommitValidation(t *testing.T) {
	p := testParams(8)
	if _, err := Commit(field.RandVector(100), p); err == nil {
		t.Fatal("accepted wrong vector length")
	}
}

func TestEvalRoundTrip(t *testing.T) {
	for _, logN := range []int{8, 10, 12} {
		p := testParams(logN)
		values := field.RandVector(1 << logN)
		st, err := Commit(values, p)
		if err != nil {
			t.Fatal(err)
		}
		comm := st.Commitment()
		if comm.NumVars() != logN {
			t.Fatalf("NumVars = %d", comm.NumVars())
		}
		point := field.RandVector(logN)
		proof, value, err := st.ProveEval(point, transcript.New("pcs"))
		if err != nil {
			t.Fatal(err)
		}
		// The claimed value must match direct multilinear evaluation.
		m, _ := poly.NewMultilinear(values)
		want, _ := m.Evaluate(point)
		if !want.Equal(&value) {
			t.Fatalf("logN=%d: PCS value != MLE evaluation", logN)
		}
		if err := VerifyEval(comm, point, value, proof, p, transcript.New("pcs")); err != nil {
			t.Fatalf("logN=%d: verify: %v", logN, err)
		}
	}
}

func TestVerifyRejectsWrongValue(t *testing.T) {
	p := testParams(10)
	values := field.RandVector(1 << 10)
	st, _ := Commit(values, p)
	point := field.RandVector(10)
	proof, value, _ := st.ProveEval(point, transcript.New("pcs"))
	var bad field.Element
	bad.Add(&value, &[]field.Element{field.One()}[0])
	err := VerifyEval(st.Commitment(), point, bad, proof, p, transcript.New("pcs"))
	if !errors.Is(err, ErrReject) {
		t.Fatalf("wrong value accepted: %v", err)
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	p := testParams(10)
	values := field.RandVector(1 << 10)
	st, _ := Commit(values, p)
	point := field.RandVector(10)
	proof, value, _ := st.ProveEval(point, transcript.New("pcs"))
	comm := st.Commitment()

	// Tampered evaluation row.
	bad := *proof
	bad.CombinedRow = append([]field.Element{}, proof.CombinedRow...)
	bad.CombinedRow[3] = field.NewElement(123)
	if err := VerifyEval(comm, point, value, &bad, p, transcript.New("pcs")); err == nil {
		t.Fatal("tampered CombinedRow accepted")
	}

	// Tampered test row.
	bad = *proof
	bad.TestRow = append([]field.Element{}, proof.TestRow...)
	bad.TestRow[0] = field.NewElement(5)
	if err := VerifyEval(comm, point, value, &bad, p, transcript.New("pcs")); err == nil {
		t.Fatal("tampered TestRow accepted")
	}

	// Tampered opened column value.
	bad = *proof
	bad.Columns = append([]OpenedColumn{}, proof.Columns...)
	col := bad.Columns[2]
	col.Values = append([]field.Element{}, col.Values...)
	col.Values[0] = field.NewElement(77)
	bad.Columns[2] = col
	if err := VerifyEval(comm, point, value, &bad, p, transcript.New("pcs")); err == nil {
		t.Fatal("tampered column accepted")
	}

	// Dropped column.
	bad = *proof
	bad.Columns = proof.Columns[:len(proof.Columns)-1]
	if err := VerifyEval(comm, point, value, &bad, p, transcript.New("pcs")); err == nil {
		t.Fatal("dropped column accepted")
	}

	// Wrong root.
	badComm := comm
	badComm.Root[0] ^= 1
	if err := VerifyEval(badComm, point, value, proof, p, transcript.New("pcs")); err == nil {
		t.Fatal("wrong root accepted")
	}

	// Nil proof and arity errors.
	if err := VerifyEval(comm, point, value, nil, p, transcript.New("pcs")); err == nil {
		t.Fatal("nil proof accepted")
	}
	if err := VerifyEval(comm, point[:4], value, proof, p, transcript.New("pcs")); err == nil {
		t.Fatal("short point accepted")
	}
	wrongLayout := p
	wrongLayout.NumRows *= 2
	if err := VerifyEval(comm, point, value, proof, wrongLayout, transcript.New("pcs")); err == nil {
		t.Fatal("mismatched layout accepted")
	}
}

func TestSoundnessWrongMatrix(t *testing.T) {
	// Commit to v1, then try to convince the verifier of v2's evaluation
	// by substituting v2's rows in the proof: the Merkle/column checks
	// must catch it.
	p := testParams(10)
	v1 := field.RandVector(1 << 10)
	v2 := field.RandVector(1 << 10)
	st1, _ := Commit(v1, p)
	st2, _ := Commit(v2, p)
	point := field.RandVector(10)
	proof2, value2, _ := st2.ProveEval(point, transcript.New("pcs"))
	err := VerifyEval(st1.Commitment(), point, value2, proof2, p, transcript.New("pcs"))
	if err == nil {
		t.Fatal("proof for a different committed matrix accepted")
	}
}

func TestProveEvalArity(t *testing.T) {
	p := testParams(8)
	st, _ := Commit(field.RandVector(1<<8), p)
	if _, _, err := st.ProveEval(field.RandVector(3), transcript.New("pcs")); err == nil {
		t.Fatal("short point accepted by prover")
	}
}

func TestDeterministicCommitment(t *testing.T) {
	p := testParams(8)
	values := field.RandVector(1 << 8)
	s1, _ := Commit(values, p)
	s2, _ := Commit(values, p)
	if s1.Commitment().Root != s2.Commitment().Root {
		t.Fatal("commitment not deterministic")
	}
}

func TestSingleRowLayout(t *testing.T) {
	// Degenerate layout: one row (no row variables).
	p := Params{NumRows: 1, NumCols: 64, NumOpenings: 8, Enc: testParams(8).Enc}
	values := field.RandVector(64)
	st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	point := field.RandVector(6)
	proof, value, err := st.ProveEval(point, transcript.New("pcs"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := poly.NewMultilinear(values)
	want, _ := m.Evaluate(point)
	if !want.Equal(&value) {
		t.Fatal("single-row value mismatch")
	}
	if err := VerifyEval(st.Commitment(), point, value, proof, p, transcript.New("pcs")); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCommit4096(b *testing.B) {
	p := testParams(12)
	values := field.RandVector(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Commit(values, p); err != nil {
			b.Fatal(err)
		}
	}
}

// The commitment is defined as the Merkle tree over merkle.HashElements of
// every encoded column, with the codewords in Montgomery form as
// Encoder.Encode returns them. The committer encodes in the canonical
// domain (each row taken out of Montgomery form once, codewords hashed as
// raw limbs) and produces the leaves by a tiled walk instead. Its root
// must be the definition's for Commit and for streamed commitments in
// both modes, with chunks that split rows and flush blocks of 3 rows, on
// vectors with a partial last row followed by zero rows that carry the
// entries 0, 1 and r − 1.
func TestCommitRootIsTreeOverColumnHashes(t *testing.T) {
	lowerStreamGrains(t)
	var minusOne field.Element
	minusOne.SetInt64(-1)
	for _, logN := range []int{6, 9, 10} {
		p := testParams(logN)
		enc, err := encoder.New(p.NumCols, p.Enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, used := range []int{1 << logN, p.NumCols + 3, 3*p.NumCols + 1} {
			values := make([]field.Element, 1<<logN)
			copy(values, field.RandVector(used))
			values[0], values[1], values[2] = field.Element{}, field.One(), minusOne
			cols := make([][]field.Element, enc.CodewordLen())
			for j := range cols {
				cols[j] = make([]field.Element, p.NumRows)
			}
			for r := 0; r < p.NumRows; r++ {
				cw, err := enc.Encode(values[r*p.NumCols : (r+1)*p.NumCols])
				if err != nil {
					t.Fatal(err)
				}
				for j := range cols {
					cols[j][r] = cw[j]
				}
			}
			tree, err := merkle.BuildFromColumns(cols)
			if err != nil {
				t.Fatal(err)
			}
			want := tree.Root()
			st, err := Commit(values, p)
			if err != nil {
				t.Fatal(err)
			}
			if st.Commitment().Root != want {
				t.Fatalf("logN=%d, %d values: Commit root is not the tree over the column hashes", logN, used)
			}
			for _, chunk := range []int{p.NumCols/2 + 1, p.NumCols + 3} {
				for _, mode := range []CommitMode{RetainTree, RootOnly} {
					for _, w := range []int{1, 2} {
						par.SetWidth(w)
						if streamCommit(t, values, p, chunk, mode).Commitment().Root != want {
							t.Fatalf("logN=%d, %d values, chunk %d, mode %d, width %d: streamed root is not the tree over the column hashes",
								logN, used, chunk, mode, w)
						}
					}
				}
			}
		}
	}
}

// TestZeroTailColumns: a committed vector whose last rows are zero opens
// columns that stop at its last nonzero row (never ending in a zero), in
// the single and multi-point proofs alike, and each verifies.
// The verifier reads the missing entries as zeros: a column with one
// more zero still verifies, one with a nonzero entry in its tail or with
// more than NumRows entries does not.
func TestZeroTailColumns(t *testing.T) {
	p := testParams(10)
	values := make([]field.Element, 1<<10)
	used := 5*p.NumCols + 3 // rows 0..5 nonzero, the rest padding
	copy(values, field.RandVector(used))
	st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	comm, point := st.Commitment(), field.RandVector(10)
	proof, value, err := st.ProveEval(point, transcript.New("pcs"))
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := st.ProveEvalMulti([][]field.Element{point}, transcript.New("pcs"))
	if err != nil {
		t.Fatal(err)
	}
	for k, col := range append(proof.Columns, multi.Columns...) {
		if n := len(col.Values); n > 6 || (n > 0 && col.Values[n-1].IsZero()) {
			t.Fatalf("column %d holds %d values of %d rows, or ends in a zero", k, n, p.NumRows)
		}
	}
	if err := VerifyEval(comm, point, value, proof, p, transcript.New("pcs")); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEvalMulti(comm, [][]field.Element{point}, []field.Element{value}, multi, p, transcript.New("pcs")); err != nil {
		t.Fatal(err)
	}

	col := &proof.Columns[0]
	orig := col.Values
	for _, tc := range []struct {
		name   string
		values []field.Element
		ok     bool
	}{
		{"one more zero", append(append([]field.Element{}, orig...), field.Element{}), true},
		{"nonzero in the tail", append(append([]field.Element{}, orig...), field.One()), false},
		{"past NumRows", append(append([]field.Element{}, orig...), make([]field.Element, p.NumRows)...), false},
	} {
		col.Values = tc.values
		err := VerifyEval(comm, point, value, proof, p, transcript.New("pcs"))
		if tc.ok && err != nil || !tc.ok && !errors.Is(err, ErrReject) {
			t.Errorf("%s: verify returned %v", tc.name, err)
		}
	}
}
