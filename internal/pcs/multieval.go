package pcs

import (
	"fmt"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/transcript"
)

// MultiEvalProof proves evaluations of the committed polynomial at
// several points while sharing one proximity test and one set of opened
// columns across all of them — the batched-opening optimization that
// keeps the proof's Merkle part constant as the number of query points
// grows.
type MultiEvalProof struct {
	TestRow      []field.Element
	CombinedRows [][]field.Element // one eqHiᵀ·M row per point
	Opening
}

// ProveEvalMulti produces one batched proof for all points (each of
// arity NumVars, x_1..x_n order) and returns the evaluation values.
func (s *ProverState) ProveEvalMulti(points [][]field.Element, tr *transcript.Transcript) (*MultiEvalProof, []field.Element, error) {
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("pcs: no evaluation points")
	}
	ss := s.ss
	n := ss.comm.NumVars()
	tr.AppendDigest("pcs/root", ss.comm.Root)
	tr.AppendUint64("pcs/numpoints", uint64(len(points)))
	for _, pt := range points {
		if len(pt) != n {
			return nil, nil, fmt.Errorf("pcs: point arity %d, want %d", len(pt), n)
		}
		tr.AppendElements("pcs/point", pt)
	}

	numRows, numCols := ss.params.NumRows, ss.params.NumCols
	ws := [][]field.Element{tr.ChallengeElements("pcs/gamma", numRows)}
	for _, pt := range points {
		_, hi := splitPoint(pt, numCols)
		ws = append(ws, eqTableOf(hi))
	}
	rows := combineRows(s.rowAt, numRows, numCols, ws...)
	proof := &MultiEvalProof{TestRow: rows[0], CombinedRows: rows[1:]}
	tr.AppendElements("pcs/testrow", proof.TestRow)
	values := make([]field.Element, len(points))
	for i, pt := range points {
		tr.AppendElements("pcs/evalrow", proof.CombinedRows[i])
		values[i] = evalValue(proof.CombinedRows[i], pt, numCols)
	}

	idx := tr.ChallengeIndices("pcs/cols", ss.params.NumOpenings, ss.enc.CodewordLen())
	o, err := ss.open(s.rowAt, idx)
	if err != nil {
		return nil, nil, err
	}
	proof.Opening = o
	return proof, values, nil
}

// VerifyEvalMulti checks a batched evaluation proof against a commitment,
// the points, and the claimed values.
func VerifyEvalMulti(comm Commitment, points [][]field.Element, values []field.Element, proof *MultiEvalProof, params Params, tr *transcript.Transcript) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if len(points) == 0 || len(points) != len(values) {
		return fmt.Errorf("pcs: %d points vs %d values", len(points), len(values))
	}
	if proof == nil || len(proof.CombinedRows) != len(points) || len(proof.TestRow) != params.NumCols {
		return fmt.Errorf("%w: malformed multi-eval proof", ErrReject)
	}
	if comm.NumRows != params.NumRows || comm.NumCols != params.NumCols {
		return fmt.Errorf("pcs: commitment layout mismatch")
	}
	enc, err := encoder.Cached(params.NumCols, params.Enc)
	if err != nil {
		return err
	}

	n := comm.NumVars()
	tr.AppendDigest("pcs/root", comm.Root)
	tr.AppendUint64("pcs/numpoints", uint64(len(points)))
	for _, pt := range points {
		if len(pt) != n {
			return fmt.Errorf("pcs: point arity %d, want %d", len(pt), n)
		}
		tr.AppendElements("pcs/point", pt)
	}
	gamma := tr.ChallengeElements("pcs/gamma", params.NumRows)
	tr.AppendElements("pcs/testrow", proof.TestRow)

	encRows := make([][]field.Element, 0, len(points)+1)
	encTest, err := enc.Encode(proof.TestRow)
	if err != nil {
		return err
	}
	encRows = append(encRows, encTest)
	eqHis := make([][]field.Element, len(points))
	for i, pt := range points {
		if len(proof.CombinedRows[i]) != params.NumCols {
			return fmt.Errorf("%w: eval row %d malformed", ErrReject, i)
		}
		tr.AppendElements("pcs/evalrow", proof.CombinedRows[i])
		encEval, err := enc.Encode(proof.CombinedRows[i])
		if err != nil {
			return err
		}
		encRows = append(encRows, encEval)
		_, hi := splitPoint(pt, params.NumCols)
		eqHis[i] = eqTableOf(hi)
	}

	idx := tr.ChallengeIndices("pcs/cols", params.NumOpenings, enc.CodewordLen())
	if err := proof.check(comm, idx); err != nil {
		return err
	}
	for _, col := range proof.Columns {
		got := field.InnerProduct(col.Values, gamma)
		if !got.Equal(&encRows[0][col.Index]) {
			return fmt.Errorf("%w: column %d fails proximity check", ErrReject, col.Index)
		}
		for i := range points {
			got := field.InnerProduct(col.Values, eqHis[i])
			if !got.Equal(&encRows[i+1][col.Index]) {
				return fmt.Errorf("%w: column %d fails evaluation check for point %d", ErrReject, col.Index, i)
			}
		}
	}

	for i, pt := range points {
		lo, _ := splitPoint(pt, params.NumCols)
		want := field.InnerProduct(proof.CombinedRows[i], eqTableOf(lo))
		if !want.Equal(&values[i]) {
			return fmt.Errorf("%w: point %d value mismatch", ErrReject, i)
		}
	}
	return nil
}
