package protocol

import (
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/pcs"
)

// TestOpenedColumnsLeakWitness pins that the proofs are not
// zero-knowledge. The encoder is systematic (encoder's
// TestSystematicPrefix): the first NumCols entries of every encoded row
// are the row itself, so an opened column whose index falls in that
// prefix is a column of the witness matrix, verbatim. A hiding (masked)
// commitment would make this test fail; until one exists, it keeps the
// claim from coming back silently.
func TestOpenedColumnsLeakWitness(t *testing.T) {
	c, err := circuit.RandomCircuit(256, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	in := func(a, b uint64) []field.Element {
		return []field.Element{field.NewElement(a), field.NewElement(b)}
	}
	w, err := c.Evaluate(in(3, 5), in(7, 11))
	if err != nil {
		t.Fatal(err)
	}
	// The committed matrix: the witness zero-padded to NumWires, NumCols
	// entries per row.
	matrix := make([]field.Element, p.NumWires)
	copy(matrix, w)
	proof, err := ProveWitness(c, p, w)
	if err != nil {
		t.Fatal(err)
	}

	rows, cols := p.PCS.NumRows, p.PCS.NumCols
	leaked := 0
	for _, col := range proof.PCSProof.Columns {
		if col.Index >= cols {
			continue // parity part of the codeword
		}
		column := make([]field.Element, rows)
		for r := range column {
			column[r] = matrix[r*cols+col.Index]
		}
		if !field.VectorEqual(col.Values, pcs.TrimZeros(column)) {
			t.Fatalf("opened column %d is not witness column %d", col.Index, col.Index)
		}
		leaked++
	}
	// 64 openings over a codeword four times the row length: about 16
	// land in the message prefix, and the transcript fixes which.
	if leaked == 0 {
		t.Fatal("no opened column fell in the message prefix")
	}
	t.Logf("%d of %d opened columns are witness columns", leaked, len(proof.PCSProof.Columns))
}
