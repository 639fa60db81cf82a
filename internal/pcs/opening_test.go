package pcs

import (
	"errors"
	"slices"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/sha2"
	"batchzk/internal/transcript"
)

// TestEvalSharesSiblings: an evaluation proof opens each distinct
// challenged column once, in increasing order, and authenticates them
// with fewer sibling digests than t independent paths would carry.
func TestEvalSharesSiblings(t *testing.T) {
	p := testParams(10)
	values := field.RandVector(1 << 10)
	st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	point := field.RandVector(10)
	proof, value, err := st.ProveEval(point, transcript.New("pcss"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := poly.NewMultilinear(values)
	if want, _ := m.Evaluate(point); !want.Equal(&value) {
		t.Fatal("value != MLE evaluation")
	}
	comm := st.Commitment()
	if err := VerifyEval(comm, point, value, proof, p, transcript.New("pcss")); err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(proof.Columns))
	for k, col := range proof.Columns {
		idx[k] = col.Index
	}
	if !slices.IsSorted(idx) || len(slices.Compact(slices.Clone(idx))) != len(idx) {
		t.Fatalf("opened indices %v are not strictly increasing", idx)
	}
	if cap(proof.Siblings) != len(proof.Siblings) {
		t.Fatalf("siblings hold %d of %d allocated digests; a held proof keeps only what it carries", len(proof.Siblings), cap(proof.Siblings))
	}
	shared, independent := len(proof.Siblings), p.NumOpenings*comm.TreeDepth()
	if shared >= independent {
		t.Fatalf("shared paths (%d digests) not smaller than independent (%d)", shared, independent)
	}
	t.Logf("%d of %d challenged columns distinct; path digests: %d shared vs %d independent",
		len(idx), p.NumOpenings, shared, independent)
}

// TestVerifyRejectsOpeningTampering perturbs each kind of field of a
// valid opening — a column's index and values, a sibling digest, the
// order and lengths of both lists — and requires VerifyEval to reject
// each one. protocol.TestVerifyRejectsOpeningMutations perturbs every
// column and sibling of a whole proof through its wire form.
func TestVerifyRejectsOpeningTampering(t *testing.T) {
	p := testParams(10)
	values := field.RandVector(1 << 10)
	st, _ := Commit(values, p)
	point := field.RandVector(10)
	proof, value, err := st.ProveEval(point, transcript.New("pcst"))
	if err != nil {
		t.Fatal(err)
	}
	comm := st.Commitment()
	reject := func(name string, o Opening) {
		t.Helper()
		bad := *proof
		bad.Opening = o
		if err := VerifyEval(comm, point, value, &bad, p, transcript.New("pcst")); !errors.Is(err, ErrReject) {
			t.Errorf("%s: verify returned %v", name, err)
		}
	}
	cols := func() []OpenedColumn { return slices.Clone(proof.Columns) }
	sibs := func() []sha2.Digest { return slices.Clone(proof.Siblings) }

	c := cols()
	c[2].Values = slices.Clone(c[2].Values)
	c[2].Values[0].Add(&c[2].Values[0], &values[1])
	reject("column value", Opening{c, proof.Siblings})
	c = cols()
	c[2].Index ^= 1
	reject("column index", Opening{c, proof.Siblings})
	sb := sibs()
	sb[3][7] ^= 1
	reject("sibling digest", Opening{proof.Columns, sb})
	c = cols()
	c[0], c[1] = c[1], c[0]
	reject("columns out of order", Opening{c, proof.Siblings})
	c = cols()
	c[1] = c[0]
	reject("duplicated column", Opening{c, proof.Siblings})
	reject("dropped column", Opening{proof.Columns[1:], proof.Siblings})
	reject("extra column", Opening{append(cols(), proof.Columns[0]), proof.Siblings})
	reject("dropped sibling", Opening{proof.Columns, proof.Siblings[:len(proof.Siblings)-1]})
	reject("extra sibling", Opening{proof.Columns, append(sibs(), proof.Siblings[0])})
	reject("no siblings", Opening{proof.Columns, nil})
	c = cols()
	c[0].Values = append(slices.Clone(c[0].Values), make([]field.Element, p.NumRows)...)
	reject("column past NumRows", Opening{c, proof.Siblings})

	var bad field.Element
	bad.Add(&value, &values[0])
	if err := VerifyEval(comm, point, bad, proof, p, transcript.New("pcst")); err == nil {
		t.Error("wrong value accepted")
	}
	badRoot := comm
	badRoot.Root[2] ^= 1
	if err := VerifyEval(badRoot, point, value, proof, p, transcript.New("pcst")); err == nil {
		t.Error("wrong root accepted")
	}
}

// TestTreeDepth: the commitment's column tree has TreeDepth layers above
// its leaves.
func TestTreeDepth(t *testing.T) {
	for _, logN := range []int{4, 8, 11} {
		st, err := Commit(field.RandVector(1<<logN), NewParams(logN))
		if err != nil {
			t.Fatal(err)
		}
		comm := st.Commitment()
		if got, want := comm.TreeDepth(), st.ss.tree.Depth(); got != want {
			t.Errorf("logN=%d: TreeDepth %d, tree depth %d", logN, got, want)
		}
	}
}
