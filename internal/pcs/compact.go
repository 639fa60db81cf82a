package pcs

import (
	"fmt"
	"sort"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/transcript"
)

// CompactEvalProof is an evaluation proof whose t column openings share
// one deduplicated Merkle multiproof instead of t independent paths —
// the opened columns dominate this protocol family's multi-MB proofs, so
// the shared-path form shrinks them substantially.
type CompactEvalProof struct {
	TestRow     []field.Element
	CombinedRow []field.Element
	// Columns holds the opened column values keyed by ascending index
	// (duplicated challenge indices are coalesced).
	ColumnIndex  []int
	ColumnValues [][]field.Element
	Paths        *merkle.MultiProof
}

// ProveEvalCompact is ProveEval with shared column paths.
func (s *ProverState) ProveEvalCompact(point []field.Element, tr *transcript.Transcript) (*CompactEvalProof, field.Element, error) {
	testRow, combined, idx, err := s.ss.evalRows(s.rowAt, point, tr)
	if err != nil {
		return nil, field.Element{}, err
	}
	uniq := map[int]bool{}
	for _, j := range idx {
		uniq[j] = true
	}
	sorted := make([]int, 0, len(uniq))
	for j := range uniq {
		sorted = append(sorted, j)
	}
	sort.Ints(sorted)

	cols, err := s.ss.openColumns(s.rowAt, sorted)
	if err != nil {
		return nil, field.Element{}, err
	}
	mp, err := s.ss.tree.ProveMulti(sorted)
	if err != nil {
		return nil, field.Element{}, err
	}
	proof := &CompactEvalProof{TestRow: testRow, CombinedRow: combined, ColumnIndex: sorted, ColumnValues: cols, Paths: mp}
	return proof, evalValue(combined, point, s.ss.params.NumCols), nil
}

// VerifyEvalCompact checks a compact evaluation proof.
func VerifyEvalCompact(comm Commitment, point []field.Element, value field.Element, proof *CompactEvalProof, params Params, tr *transcript.Transcript) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if comm.NumRows != params.NumRows || comm.NumCols != params.NumCols {
		return fmt.Errorf("pcs: commitment layout mismatch")
	}
	if len(point) != comm.NumVars() {
		return fmt.Errorf("pcs: point arity %d, want %d", len(point), comm.NumVars())
	}
	if proof == nil || proof.Paths == nil ||
		len(proof.TestRow) != params.NumCols || len(proof.CombinedRow) != params.NumCols ||
		len(proof.ColumnIndex) != len(proof.ColumnValues) {
		return fmt.Errorf("%w: malformed compact proof", ErrReject)
	}
	enc, err := encoder.Cached(params.NumCols, params.Enc)
	if err != nil {
		return err
	}

	tr.AppendDigest("pcs/root", comm.Root)
	tr.AppendElements("pcs/point", point)
	gamma := tr.ChallengeElements("pcs/gamma", params.NumRows)
	tr.AppendElements("pcs/testrow", proof.TestRow)
	tr.AppendElements("pcs/evalrow", proof.CombinedRow)
	idx := tr.ChallengeIndices("pcs/cols", params.NumOpenings, enc.CodewordLen())

	// The proof's sorted unique indices must be exactly the challenge set.
	want := map[int]bool{}
	for _, j := range idx {
		want[j] = true
	}
	if len(want) != len(proof.ColumnIndex) {
		return fmt.Errorf("%w: %d opened columns, challenge set has %d", ErrReject, len(proof.ColumnIndex), len(want))
	}
	for k, j := range proof.ColumnIndex {
		if !want[j] {
			return fmt.Errorf("%w: column %d not in the challenge set", ErrReject, j)
		}
		if k > 0 && j <= proof.ColumnIndex[k-1] {
			return fmt.Errorf("%w: column indices not strictly increasing", ErrReject)
		}
	}

	// Shared Merkle paths: leaves must equal the column hashes.
	if len(proof.Paths.Indices) != len(proof.ColumnIndex) {
		return fmt.Errorf("%w: path/column count mismatch", ErrReject)
	}
	for k, j := range proof.ColumnIndex {
		if proof.Paths.Indices[k] != j {
			return fmt.Errorf("%w: path index mismatch at %d", ErrReject, k)
		}
		if len(proof.ColumnValues[k]) > params.NumRows {
			return fmt.Errorf("%w: column %d has %d values", ErrReject, j, len(proof.ColumnValues[k]))
		}
		if merkle.HashElementsPadded(proof.ColumnValues[k], params.NumRows) != proof.Paths.Leaves[k] {
			return fmt.Errorf("%w: column %d leaf mismatch", ErrReject, j)
		}
	}
	if !merkle.VerifyMulti(comm.Root, proof.Paths) {
		return fmt.Errorf("%w: shared Merkle paths invalid", ErrReject)
	}

	encTest, err := enc.Encode(proof.TestRow)
	if err != nil {
		return err
	}
	encEval, err := enc.Encode(proof.CombinedRow)
	if err != nil {
		return err
	}
	lo, hi := splitPoint(point, params.NumCols)
	eqHi := eqTableOf(hi)
	for k, j := range proof.ColumnIndex {
		got := field.InnerProduct(proof.ColumnValues[k], gamma)
		if !got.Equal(&encTest[j]) {
			return fmt.Errorf("%w: column %d fails proximity check", ErrReject, j)
		}
		got = field.InnerProduct(proof.ColumnValues[k], eqHi)
		if !got.Equal(&encEval[j]) {
			return fmt.Errorf("%w: column %d fails evaluation check", ErrReject, j)
		}
	}
	wantVal := field.InnerProduct(proof.CombinedRow, eqTableOf(lo))
	if !wantVal.Equal(&value) {
		return fmt.Errorf("%w: combined row does not yield the claimed value", ErrReject)
	}
	return nil
}

// PathDigests reports how many sibling digests the compact proof carries
// versus the per-column form — the size saving of the shared paths.
func (p *CompactEvalProof) PathDigests() (compact, independent int) {
	if p == nil || p.Paths == nil {
		return 0, 0
	}
	depth := 0
	for 1<<depth < p.Paths.NumLeaves {
		depth++
	}
	return p.Paths.MultiProofSize(), len(p.ColumnIndex) * depth
}
