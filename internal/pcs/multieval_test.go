package pcs

import (
	"errors"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

func TestMultiEvalRoundTrip(t *testing.T) {
	p := testParams(10)
	values := field.RandVector(1 << 10)
	st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, numPoints := range []int{1, 2, 4} {
		points := make([][]field.Element, numPoints)
		for i := range points {
			points[i] = field.RandVector(10)
		}
		proof, vals, err := st.ProveEvalMulti(points, transcript.New("pcsm"))
		if err != nil {
			t.Fatal(err)
		}
		// Each value equals the MLE evaluation.
		m, _ := poly.NewMultilinear(values)
		for i := range points {
			want, _ := m.Evaluate(points[i])
			if !want.Equal(&vals[i]) {
				t.Fatalf("point %d value mismatch", i)
			}
		}
		if err := VerifyEvalMulti(st.Commitment(), points, vals, proof, p, transcript.New("pcsm")); err != nil {
			t.Fatalf("numPoints=%d: %v", numPoints, err)
		}
		// Column sharing: the Merkle part does not grow with the number
		// of points.
		if n := len(proof.Columns); n == 0 || n > p.NumOpenings {
			t.Fatalf("opened %d columns, want 1..%d", n, p.NumOpenings)
		}
	}
}

func TestMultiEvalRejections(t *testing.T) {
	p := testParams(10)
	values := field.RandVector(1 << 10)
	st, _ := Commit(values, p)
	points := [][]field.Element{field.RandVector(10), field.RandVector(10)}
	proof, vals, err := st.ProveEvalMulti(points, transcript.New("pcsm"))
	if err != nil {
		t.Fatal(err)
	}
	comm := st.Commitment()

	// Wrong value.
	bad := append([]field.Element{}, vals...)
	bad[1].Add(&bad[1], &vals[0])
	if err := VerifyEvalMulti(comm, points, bad, proof, p, transcript.New("pcsm")); !errors.Is(err, ErrReject) {
		t.Fatalf("wrong value accepted: %v", err)
	}
	// Swapped points (order is transcript-bound).
	swapped := [][]field.Element{points[1], points[0]}
	if err := VerifyEvalMulti(comm, swapped, vals, proof, p, transcript.New("pcsm")); err == nil {
		t.Fatal("swapped points accepted")
	}
	// Tampered combined row.
	tampered := *proof
	tampered.CombinedRows = append([][]field.Element{}, proof.CombinedRows...)
	tampered.CombinedRows[0] = append([]field.Element{}, proof.CombinedRows[0]...)
	tampered.CombinedRows[0][5] = field.NewElement(1)
	if err := VerifyEvalMulti(comm, points, vals, &tampered, p, transcript.New("pcsm")); err == nil {
		t.Fatal("tampered row accepted")
	}
	// Count mismatches.
	if err := VerifyEvalMulti(comm, points[:1], vals, proof, p, transcript.New("pcsm")); err == nil {
		t.Fatal("point/value count mismatch accepted")
	}
	if err := VerifyEvalMulti(comm, nil, nil, proof, p, transcript.New("pcsm")); err == nil {
		t.Fatal("empty points accepted")
	}
	if err := VerifyEvalMulti(comm, points, vals, nil, p, transcript.New("pcsm")); err == nil {
		t.Fatal("nil proof accepted")
	}
	// Prover-side arity errors.
	if _, _, err := st.ProveEvalMulti(nil, transcript.New("pcsm")); err == nil {
		t.Fatal("no points accepted")
	}
	if _, _, err := st.ProveEvalMulti([][]field.Element{field.RandVector(3)}, transcript.New("pcsm")); err == nil {
		t.Fatal("short point accepted")
	}
}

func TestMultiEvalConsistentWithSingle(t *testing.T) {
	// A single-point multi-eval must accept exactly the values the
	// single-point protocol produces.
	p := testParams(8)
	values := field.RandVector(1 << 8)
	st, _ := Commit(values, p)
	point := field.RandVector(8)
	_, v1, err := st.ProveEval(point, transcript.New("a"))
	if err != nil {
		t.Fatal(err)
	}
	_, vm, err := st.ProveEvalMulti([][]field.Element{point}, transcript.New("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Equal(&vm[0]) {
		t.Fatal("multi and single evaluation values differ")
	}
}
