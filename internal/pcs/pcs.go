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
	"batchzk/internal/merkle"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/sha2"
	"batchzk/internal/transcript"
)

// Parallel grain thresholds (package vars so the bit-identity tests can
// force the parallel paths at small sizes).
var (
	parallelCommitRows = 2    // rows encoded in parallel in Commit
	parallelCombine    = 1024 // matrix cells below which combineRows is serial
)

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

// ProverState holds everything the prover needs to answer evaluation
// queries: the message matrix, the encoded matrix, and the column tree.
type ProverState struct {
	params  Params
	enc     *encoder.Encoder
	rows    [][]field.Element // message matrix M: NumRows × NumCols
	encoded [][]field.Element // U: NumRows × (RateInv·NumCols)
	tree    *merkle.Tree
	comm    Commitment
}

// Commitment returns the public commitment.
func (s *ProverState) Commitment() Commitment { return s.comm }

// Commit arranges values (length NumRows·NumCols) into a matrix, encodes
// every row, and Merkle-commits the encoded columns.
func Commit(values []field.Element, params Params) (*ProverState, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	want := params.NumRows * params.NumCols
	if len(values) != want {
		return nil, fmt.Errorf("pcs: %d values, layout wants %d", len(values), want)
	}
	enc, err := encoder.Cached(params.NumCols, params.Enc)
	if err != nil {
		return nil, err
	}
	s := &ProverState{params: params, enc: enc}
	s.rows = make([][]field.Element, params.NumRows)
	s.encoded = make([][]field.Element, params.NumRows)
	// Row-parallel Spielman encoding: every row encodes independently
	// (the Encoder is safe for concurrent use once constructed).
	w := 0
	if params.NumRows < parallelCommitRows {
		w = 1
	}
	k := par.Chunks(w, params.NumRows)
	encErrs := make([]error, k)
	par.ForChunks(k, params.NumRows, func(c, lo, hi int) {
		for r := lo; r < hi; r++ {
			s.rows[r] = values[r*params.NumCols : (r+1)*params.NumCols]
			cw, err := enc.Encode(s.rows[r])
			if err != nil {
				encErrs[c] = err
				return
			}
			s.encoded[r] = cw
		}
	})
	for _, err := range encErrs {
		if err != nil {
			return nil, err
		}
	}
	// Columns of U become Merkle leaves: each worker serializes a tile of
	// adjacent columns per pass over the rows and hashes every column's
	// bytes in one shot, without materializing the transposed matrix.
	cwLen := enc.CodewordLen()
	leaves := make([]sha2.Digest, cwLen)
	hw := 0
	if cwLen*params.NumRows < parallelCombine {
		hw = 1
	}
	par.ForScratch(hw, cwLen, func(sc *par.Scratch, lo, hi int) {
		merkle.ColumnBytes(sc, s.encoded, lo, hi, func(j int, col []byte) {
			leaves[j] = sha2.Sum256(col)
		})
	})
	tree, err := merkle.BuildFromDigests(leaves)
	if err != nil {
		return nil, err
	}
	s.tree = tree
	s.comm = Commitment{Root: tree.Root(), NumRows: params.NumRows, NumCols: params.NumCols}
	return s, nil
}

// OpenedColumn is one spot-checked column of the encoded matrix.
type OpenedColumn struct {
	Index  int
	Values []field.Element
	Proof  *merkle.Proof
}

// EvalProof proves that the committed polynomial evaluates to a claimed
// value at a point: a proximity-test row, the evaluation row, and the
// opened columns supporting both.
type EvalProof struct {
	TestRow     []field.Element // γᵀ·M for the transcript-derived γ
	CombinedRow []field.Element // eqHiᵀ·M for the query point
	Columns     []OpenedColumn
}

// splitPoint separates an evaluation point into (column vars, row vars).
func splitPoint(point []field.Element, numCols int) (lo, hi []field.Element) {
	logCols := bits.TrailingZeros(uint(numCols))
	return point[:logCols], point[logCols:]
}

// combineRows computes wᵀ·M over the message matrix. Chunking is by
// column: each chunk owns a disjoint out[lo:hi] window and accumulates
// rows in the same top-to-bottom order as the serial loop, so the result
// is bit-identical for any chunk count.
func combineRows(w []field.Element, rows [][]field.Element, width int) []field.Element {
	out := make([]field.Element, width)
	pw := 0
	if width*len(rows) < parallelCombine {
		pw = 1
	}
	par.ForWidth(pw, width, func(lo, hi int) {
		var t field.Element
		for r := range rows {
			if w[r].IsZero() {
				continue
			}
			row := rows[r]
			for c := lo; c < hi; c++ {
				t.Mul(&w[r], &row[c])
				out[c].Add(&out[c], &t)
			}
		}
	})
	return out
}

// ProveEval produces an evaluation proof for the committed polynomial at
// point (length NumVars, x_1..x_n order) and returns the evaluation value.
// The transcript binds the commitment, the point, and both combined rows
// before the column challenge, making the openings non-adaptive.
func (s *ProverState) ProveEval(point []field.Element, tr *transcript.Transcript) (*EvalProof, field.Element, error) {
	n := s.comm.NumVars()
	if len(point) != n {
		return nil, field.Element{}, fmt.Errorf("pcs: point arity %d, want %d", len(point), n)
	}
	tr.AppendDigest("pcs/root", s.comm.Root)
	tr.AppendElements("pcs/point", point)

	gamma := tr.ChallengeElements("pcs/gamma", s.params.NumRows)
	testRow := combineRows(gamma, s.rows, s.params.NumCols)
	tr.AppendElements("pcs/testrow", testRow)

	lo, hi := splitPoint(point, s.params.NumCols)
	eqHi := eqTableOf(hi)
	combined := combineRows(eqHi, s.rows, s.params.NumCols)
	tr.AppendElements("pcs/evalrow", combined)

	idx := tr.ChallengeIndices("pcs/cols", s.params.NumOpenings, s.enc.CodewordLen())
	proof := &EvalProof{TestRow: testRow, CombinedRow: combined}
	// Column openings are independent (tree reads + disjoint writes into
	// the preallocated slice keep the idx order of the serial loop).
	proof.Columns = make([]OpenedColumn, len(idx))
	ow := 0
	if len(idx)*s.params.NumRows < parallelCombine {
		ow = 1
	}
	ck := par.Chunks(ow, len(idx))
	openErrs := make([]error, ck)
	par.ForChunks(ck, len(idx), func(c, lo, hi int) {
		for k := lo; k < hi; k++ {
			j := idx[k]
			col := make([]field.Element, s.params.NumRows)
			for r := 0; r < s.params.NumRows; r++ {
				col[r] = s.encoded[r][j]
			}
			mp, err := s.tree.Prove(j)
			if err != nil {
				openErrs[c] = err
				return
			}
			proof.Columns[k] = OpenedColumn{Index: j, Values: col, Proof: mp}
		}
	})
	for _, err := range openErrs {
		if err != nil {
			return nil, field.Element{}, err
		}
	}

	eqLo := eqTableOf(lo)
	value := field.InnerProduct(combined, eqLo)
	return proof, value, nil
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

	if len(proof.Columns) != len(idx) {
		return fmt.Errorf("%w: %d opened columns, want %d", ErrReject, len(proof.Columns), len(idx))
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

	for k, col := range proof.Columns {
		if col.Index != idx[k] {
			return fmt.Errorf("%w: column %d opened at index %d, challenged %d", ErrReject, k, col.Index, idx[k])
		}
		if len(col.Values) != params.NumRows {
			return fmt.Errorf("%w: column %d has %d values", ErrReject, k, len(col.Values))
		}
		if col.Proof == nil || col.Proof.Index != col.Index {
			return fmt.Errorf("%w: column %d proof index mismatch", ErrReject, k)
		}
		if !merkle.VerifyElements(comm.Root, col.Proof, col.Values) {
			return fmt.Errorf("%w: column %d Merkle path invalid", ErrReject, k)
		}
		// γᵀ·col must equal encode(testRow)[j]; eqHiᵀ·col must equal
		// encode(evalRow)[j] — linearity of the code makes both hold for
		// an honest matrix.
		got := field.InnerProduct(gamma, col.Values)
		if !got.Equal(&encTest[col.Index]) {
			return fmt.Errorf("%w: column %d fails proximity check", ErrReject, k)
		}
		got = field.InnerProduct(eqHi, col.Values)
		if !got.Equal(&encEval[col.Index]) {
			return fmt.Errorf("%w: column %d fails evaluation check", ErrReject, k)
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
