// Package pcs implements the Brakedown/Orion-style polynomial commitment
// scheme that BatchZK's proof generation pipeline computes (Figure 7 of
// the paper): the committed vector is arranged as a matrix, every row is
// encoded with the linear-time encoder, the columns of the encoded matrix
// are hashed into a Merkle tree, and evaluation/proximity claims are
// settled by random row combinations plus spot-checked column openings.
//
// The commitment is binding under the collision resistance of SHA-256 and
// the minimum distance of the code; it is not hiding (the paper's
// protocols share this property in their unmasked form — see DESIGN.md).
//
// Index convention: for a committed vector of length rows·cols, entry
// index b = r·cols + c, so the low log₂(cols) variables of the multilinear
// extension select the column and the high variables select the row. The
// eq table then factors as eqLo ⊗ eqHi, which is what makes the
// matrix-shaped evaluation protocol work.
package pcs

import (
	"errors"
	"fmt"
	"math/bits"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/sha2"
	"batchzk/internal/transcript"
)

// parallelCombine is the matrix cell count below which combineRows runs
// serially (a package var so the bit-identity tests can force the
// parallel path at small sizes).
var parallelCombine = 1024

// Params configures the matrix layout and security of the scheme.
type Params struct {
	NumRows     int // power of two
	NumCols     int // power of two, ≥ encoder base size
	NumOpenings int // spot-checked columns (t)
	Enc         encoder.Params
}

// DefaultNumOpenings is the default column-opening count.
const DefaultNumOpenings = 64

// NewParams picks a near-square matrix layout for a vector of length
// 2^logN and the default encoder/security parameters.
func NewParams(logN int) Params {
	logCols := (logN + 1) / 2
	enc := encoder.DefaultParams()
	// Columns must be at least the encoder's base size.
	for 1<<logCols < enc.BaseSize {
		logCols++
	}
	if logCols > logN {
		logCols = logN
	}
	return Params{
		NumRows:     1 << (logN - logCols),
		NumCols:     1 << logCols,
		NumOpenings: DefaultNumOpenings,
		Enc:         enc,
	}
}

// Validate checks structural parameter constraints.
func (p Params) Validate() error {
	if p.NumRows <= 0 || p.NumRows&(p.NumRows-1) != 0 {
		return fmt.Errorf("pcs: rows %d not a positive power of two", p.NumRows)
	}
	if p.NumCols <= 0 || p.NumCols&(p.NumCols-1) != 0 {
		return fmt.Errorf("pcs: cols %d not a positive power of two", p.NumCols)
	}
	if p.NumOpenings <= 0 {
		return fmt.Errorf("pcs: need at least one column opening")
	}
	return nil
}

// Commitment is the verifier-side commitment: a Merkle root over the
// encoded matrix's columns plus the public layout.
type Commitment struct {
	Root    sha2.Digest
	NumRows int
	NumCols int
}

// NumVars returns the arity of the committed multilinear polynomial.
func (c *Commitment) NumVars() int {
	return bits.TrailingZeros(uint(c.NumRows)) + bits.TrailingZeros(uint(c.NumCols))
}

// ProverState is the prover side of a commitment to a vector the caller
// keeps: the column tree plus the vector itself, which the openings
// re-read and re-encode. It is the one-chunk case of StreamingCommitter;
// the encoded matrix is never held.
type ProverState struct {
	ss     *StreamState
	values []field.Element
}

// Commitment returns the public commitment.
func (s *ProverState) Commitment() Commitment { return s.ss.comm }

// Commit arranges values (length NumRows·NumCols) into a matrix, encodes
// every row, and Merkle-commits the encoded columns. values is retained,
// not copied, and must not change while the state is in use.
func Commit(values []field.Element, params Params) (*ProverState, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if want := params.NumRows * params.NumCols; len(values) != want {
		return nil, fmt.Errorf("pcs: %d values, layout wants %d", len(values), want)
	}
	sc, err := NewStreamingCommitter(params, RetainTree)
	if err != nil {
		return nil, err
	}
	if err := sc.AddChunk(values); err != nil {
		return nil, err
	}
	ss, err := sc.Finish()
	if err != nil {
		return nil, err
	}
	return &ProverState{ss: ss, values: values}, nil
}

// rowAt is the RowAt of the retained vector.
func (s *ProverState) rowAt(r int) []field.Element {
	cols := s.ss.params.NumCols
	return s.values[r*cols : (r+1)*cols]
}

// EvalProof proves that the committed polynomial evaluates to a claimed
// value at a point: a proximity-test row, the evaluation row, and the
// opened columns supporting both.
type EvalProof struct {
	TestRow     []field.Element // γᵀ·M for the transcript-derived γ
	CombinedRow []field.Element // eqHiᵀ·M for the query point
	Opening
}

// splitPoint separates an evaluation point into (column vars, row vars).
func splitPoint(point []field.Element, numCols int) (lo, hi []field.Element) {
	logCols := bits.TrailingZeros(uint(numCols))
	return point[:logCols], point[logCols:]
}

// combineRows computes wᵀ·M over the message matrix for every weight
// vector w in ws, in one pass over the rows. Chunking is by column: each
// chunk owns a disjoint out[lo:hi] window and accumulates rows top to
// bottom, so the result is bit-identical for any chunk count.
func combineRows(rows RowAt, numRows, numCols int, ws ...[]field.Element) [][]field.Element {
	out := make([][]field.Element, len(ws))
	for i := range out {
		out[i] = make([]field.Element, numCols)
	}
	pw := 0
	if numCols*numRows < parallelCombine {
		pw = 1
	}
	par.ForWidth(pw, numCols, func(lo, hi int) {
		var t field.Element
		for r := 0; r < numRows; r++ {
			row := rows(r)
			if isZero(row[lo:hi]) {
				continue
			}
			for i, w := range ws {
				if w[r].IsZero() {
					continue
				}
				acc := out[i]
				for c := lo; c < hi; c++ {
					t.Mul(&w[r], &row[c])
					acc[c].Add(&acc[c], &t)
				}
			}
		}
	})
	return out
}

// isZero reports whether every element of v is zero. Committed vectors
// are often zero-padded to a power of two; their zero rows need neither
// encoding nor combining.
func isZero(v []field.Element) bool {
	for i := range v {
		if !v[i].IsZero() {
			return false
		}
	}
	return true
}

// ProveEval produces an evaluation proof for the committed polynomial at
// point (length NumVars, x_1..x_n order) and returns the evaluation value.
// The transcript binds the commitment, the point, and both combined rows
// before the column challenge, making the openings non-adaptive.
func (s *ProverState) ProveEval(point []field.Element, tr *transcript.Transcript) (*EvalProof, field.Element, error) {
	return s.ss.ProveEval(s.rowAt, point, tr)
}

// ErrReject is returned when an evaluation proof fails.
var ErrReject = errors.New("pcs: proof rejected")

// VerifyEval checks an evaluation proof against a commitment, point, and
// claimed value. The verifier re-encodes the two combined rows (O(cols)
// work) and checks them against the opened columns.
func VerifyEval(comm Commitment, point []field.Element, value field.Element, proof *EvalProof, params Params, tr *transcript.Transcript) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if comm.NumRows != params.NumRows || comm.NumCols != params.NumCols {
		return fmt.Errorf("pcs: commitment layout %dx%d does not match params %dx%d",
			comm.NumRows, comm.NumCols, params.NumRows, params.NumCols)
	}
	if len(point) != comm.NumVars() {
		return fmt.Errorf("pcs: point arity %d, want %d", len(point), comm.NumVars())
	}
	if proof == nil || len(proof.TestRow) != params.NumCols || len(proof.CombinedRow) != params.NumCols {
		return fmt.Errorf("%w: malformed proof rows", ErrReject)
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

	if err := proof.check(comm, idx); err != nil {
		return err
	}

	s := par.GetScratch()
	defer par.PutScratch(s)
	encTest, encEval := s.Elements(0, enc.CodewordLen()), s.Elements(1, enc.CodewordLen())
	if err := enc.EncodeInto(encTest, proof.TestRow); err != nil {
		return err
	}
	if err := enc.EncodeInto(encEval, proof.CombinedRow); err != nil {
		return err
	}

	lo, hi := splitPoint(point, params.NumCols)
	eqHi := eqTableOf(hi)

	for _, col := range proof.Columns {
		// γᵀ·col must equal encode(testRow)[j]; eqHiᵀ·col must equal
		// encode(evalRow)[j] — linearity of the code makes both hold for
		// an honest matrix. The zero tail adds nothing to either.
		got := field.InnerProduct(col.Values, gamma)
		if !got.Equal(&encTest[col.Index]) {
			return fmt.Errorf("%w: column %d fails proximity check", ErrReject, col.Index)
		}
		got = field.InnerProduct(col.Values, eqHi)
		if !got.Equal(&encEval[col.Index]) {
			return fmt.Errorf("%w: column %d fails evaluation check", ErrReject, col.Index)
		}
	}

	eqLo := eqTableOf(lo)
	want := field.InnerProduct(proof.CombinedRow, eqLo)
	if !want.Equal(&value) {
		return fmt.Errorf("%w: combined row does not yield the claimed value", ErrReject)
	}
	return nil
}

// eqTableOf is poly.EqTable (which returns [1] for an empty point).
func eqTableOf(point []field.Element) []field.Element {
	return poly.EqTable(point)
}
