package pcs

import (
	"fmt"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/par"
	"batchzk/internal/sha2"
	"batchzk/internal/transcript"
)

// The commitment path. It is the host-side analogue of the paper's
// dynamic per-cycle loading (§4): message rows arrive in chunks, each
// block of rows is encoded into one reused arena, absorbed into
// per-column incremental hashers, and overwritten by the next block. Peak
// memory is one block of codewords plus one SHA-256 state per encoded
// column (plus the column tree in proving mode) instead of the whole
// rows×cwLen encoded matrix, which is never materialized. The opening
// re-encodes each message row through the cone of the challenged columns
// (encoder.Cone) — the message itself for systematic positions, and only
// the parity rows those columns read — trading a fraction of one encoding
// for the matrix. Commit is the one-chunk case of this path.

// CommitMode selects what a StreamingCommitter retains.
type CommitMode int

const (
	// RetainTree keeps the Merkle column tree (2·cwLen digests), enabling
	// ProveEval on the resulting StreamState. The encoded matrix is still
	// never materialized.
	RetainTree CommitMode = iota
	// RootOnly folds the finalized leaves straight through a
	// merkle.FrontierBuilder: beyond the per-column hasher states, only
	// O(log cwLen) digests are ever live. The StreamState can answer
	// Commitment() but not ProveEval.
	RootOnly
)

// streamRowBlock is how many rows a streaming committer encodes per
// internal flush: enough to amortize parallel dispatch, small enough
// that the block's codewords stay a rounding error next to the matrix.
// Package var so tests can force block boundaries at odd offsets.
var streamRowBlock = 16

// StreamingCommitter absorbs a committed vector in row-major chunks of
// any size and produces the same commitment as Commit, without ever
// holding the encoded matrix. Not safe for concurrent use (it models one
// ordered ingest stream); the parallelism lives inside each flush.
type StreamingCommitter struct {
	params Params
	mode   CommitMode
	enc    *encoder.Encoder

	colHash []sha2.Hasher // one running state per encoded column
	rowsIn  int           // complete rows absorbed
	carry   []field.Element

	// block views one arena of streamRowBlock codewords, laid out at the
	// first flush and overwritten by every later one.
	block [][]field.Element
	bufs  *commitBuffers
}

// commitBuffers is the memory a StreamingCommitter works in: the codeword
// block's arena, the partial-row carry and the column hashers. Finish
// hands it back to commitBufs, so a steady prover reuses the last
// commitment's buffers instead of allocating its own. Every flush
// overwrites the block and NewStreamingCommitter resets the hashers, so
// nothing stale is read.
type commitBuffers struct {
	arena   []field.Element
	carry   []field.Element
	hashers []sha2.Hasher
}

var commitBufs par.FreeList[commitBuffers]

// NewStreamingCommitter prepares a streaming commitment for the given
// layout. Feed it exactly NumRows·NumCols elements via AddChunk, then
// call Finish.
func NewStreamingCommitter(params Params, mode CommitMode) (*StreamingCommitter, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	enc, err := encoder.Cached(params.NumCols, params.Enc)
	if err != nil {
		return nil, err
	}
	bufs := commitBufs.Get()
	if len(bufs.hashers) < enc.CodewordLen() {
		bufs.hashers = make([]sha2.Hasher, enc.CodewordLen())
	}
	colHash := bufs.hashers[:enc.CodewordLen()]
	for j := range colHash {
		colHash[j].Reset()
	}
	return &StreamingCommitter{params: params, mode: mode, enc: enc, colHash: colHash, carry: bufs.carry[:0], bufs: bufs}, nil
}

// Rows returns how many complete rows have been absorbed.
func (sc *StreamingCommitter) Rows() int { return sc.rowsIn }

// AddChunk absorbs the next chunk of the committed vector, in index
// order. Chunks need not align to row boundaries; a partial row is
// carried until its remainder arrives.
func (sc *StreamingCommitter) AddChunk(values []field.Element) error {
	cols := sc.params.NumCols
	for len(values) > 0 {
		if len(sc.carry) == 0 && len(values) >= cols {
			// Fast path: whole rows straight from the caller's slice.
			nRows := len(values) / cols
			if err := sc.flushRows(values[:nRows*cols], nRows); err != nil {
				return err
			}
			values = values[nRows*cols:]
			continue
		}
		take := cols - len(sc.carry)
		if take > len(values) {
			take = len(values)
		}
		sc.carry = append(sc.carry, values[:take]...)
		values = values[take:]
		if len(sc.carry) == cols {
			if err := sc.flushRows(sc.carry, 1); err != nil {
				return err
			}
			sc.carry = sc.carry[:0]
		}
	}
	return nil
}

// flushRows encodes nRows rows held contiguously in vals and absorbs
// their codewords into the column hashers, block by block.
func (sc *StreamingCommitter) flushRows(vals []field.Element, nRows int) error {
	if sc.rowsIn+nRows > sc.params.NumRows {
		return fmt.Errorf("pcs: streamed %d rows into a %d-row layout",
			sc.rowsIn+nRows, sc.params.NumRows)
	}
	cols := sc.params.NumCols
	if sc.block == nil {
		n, cwLen := min(streamRowBlock, sc.params.NumRows), sc.enc.CodewordLen()
		if cap(sc.bufs.arena) < n*cwLen {
			sc.bufs.arena = make([]field.Element, n*cwLen)
		}
		arena := sc.bufs.arena
		sc.block = make([][]field.Element, n)
		for i := range sc.block {
			sc.block[i] = arena[i*cwLen : (i+1)*cwLen : (i+1)*cwLen]
		}
	}
	for off := 0; off < nRows; off += len(sc.block) {
		block := sc.block[:min(nRows-off, len(sc.block))]
		// Row-parallel encoding: one codeword per row, each in its own
		// slot of the arena, in the canonical domain. The row is taken
		// out of Montgomery form into its slot's message quarter (one
		// reduction per message entry, not one per codeword entry) and
		// encoded there in place. The encoder is linear over the integers
		// and reduces mod r (wide accumulation with integer coefficients,
		// then ReduceWide), so on the row's canonical limbs it returns the
		// canonical limbs of every codeword entry: the bytes ColumnBytes
		// writes are the ones PutBytes would write for the Montgomery
		// codeword. A zero row (the padding of a committed vector) encodes
		// to zero in either domain.
		k := par.Chunks(0, len(block))
		encErrs := make([]error, k)
		par.ForChunks(k, len(block), func(c, lo, hi int) {
			for i := lo; i < hi && encErrs[c] == nil; i++ {
				r := off + i
				if row := vals[r*cols : (r+1)*cols]; isZero(row) {
					clear(block[i])
				} else {
					msg := block[i][:cols]
					field.FromMontgomery(msg, row)
					encErrs[c] = sc.enc.EncodeInto(block[i], msg)
				}
			}
		})
		for _, err := range encErrs {
			if err != nil {
				return err
			}
		}
		// Column-parallel absorption: each worker owns a disjoint column
		// range and feeds every hasher the block's b rows in one Write, in
		// row order, so each column sees exactly the byte stream
		// merkle.HashElements would have.
		par.ForScratch(0, len(sc.colHash), func(s *par.Scratch, lo, hi int) {
			merkle.ColumnBytes(s, block, lo, hi, func(j int, col []byte) {
				sc.colHash[j].Write(col)
			})
		})
	}
	sc.rowsIn += nRows
	return nil
}

// StreamState is the prover-side result of a streaming commitment: the
// public commitment plus (in RetainTree mode) the column tree needed to
// open it. The message and encoded matrices are not retained; the
// opening phase re-reads message rows through a RowAt callback.
type StreamState struct {
	params Params
	enc    *encoder.Encoder
	tree   *merkle.Tree
	comm   Commitment
}

// Commitment returns the public commitment.
func (s *StreamState) Commitment() Commitment { return s.comm }

// Release hands the column tree's memory to the next commitment. The
// state cannot open afterwards; its Commitment stays valid, and so does
// every proof it produced, none of which refers to the tree.
func (s *StreamState) Release() {
	if s.tree != nil {
		s.tree.Release()
		s.tree = nil
	}
}

// Finish finalizes the commitment. In RetainTree mode the column leaves
// are hashed in parallel and the tree above them is kept; in RootOnly
// mode leaves fold through a Merkle frontier and only the root survives.
func (sc *StreamingCommitter) Finish() (*StreamState, error) {
	if len(sc.carry) != 0 {
		return nil, fmt.Errorf("pcs: stream ended mid-row (%d of %d elements)",
			len(sc.carry), sc.params.NumCols)
	}
	if sc.rowsIn != sc.params.NumRows {
		return nil, fmt.Errorf("pcs: streamed %d rows, layout wants %d",
			sc.rowsIn, sc.params.NumRows)
	}
	st := &StreamState{params: sc.params, enc: sc.enc}
	switch sc.mode {
	case RootOnly:
		fb := merkle.NewFrontierBuilder()
		for j := range sc.colHash {
			fb.Add(sc.colHash[j].Sum())
		}
		root, err := fb.Root()
		if err != nil {
			return nil, err
		}
		st.comm = Commitment{Root: root, NumRows: sc.params.NumRows, NumCols: sc.params.NumCols}
	default:
		s := par.GetScratch()
		defer par.PutScratch(s)
		leaves := s.Digests(len(sc.colHash)) // BuildFromDigests copies them
		par.For(len(leaves), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				leaves[j] = sc.colHash[j].Sum()
			}
		})
		tree, err := merkle.BuildFromDigests(leaves)
		if err != nil {
			return nil, err
		}
		st.tree = tree
		st.comm = Commitment{Root: tree.Root(), NumRows: sc.params.NumRows, NumCols: sc.params.NumCols}
	}
	sc.bufs.carry = sc.carry
	commitBufs.Put(sc.bufs)
	sc.colHash, sc.block, sc.carry, sc.bufs = nil, nil, nil, nil // dead weight from here on
	return st, nil
}

// RowAt returns message-matrix row r (length NumCols). The opening phase
// calls it from multiple goroutines and may fetch the same row twice, so
// it must be safe for concurrent use and pure — typically a re-slice of
// the witness vector, or a re-read from wherever the row was spilled.
type RowAt func(r int) []field.Element

// ProveEval produces an evaluation proof for the committed polynomial at
// point (length NumVars, x_1..x_n order) and returns the evaluation value,
// re-reading the message matrix through rows. The transcript binds the
// commitment, the point, and both combined rows before the column
// challenge, making the openings non-adaptive.
func (s *StreamState) ProveEval(rows RowAt, point []field.Element, tr *transcript.Transcript) (*EvalProof, field.Element, error) {
	testRow, combined, idx, err := s.evalRows(rows, point, tr)
	if err != nil {
		return nil, field.Element{}, err
	}
	o, err := s.open(rows, idx)
	if err != nil {
		return nil, field.Element{}, err
	}
	proof := &EvalProof{TestRow: testRow, CombinedRow: combined, Opening: o}
	return proof, evalValue(combined, point, s.params.NumCols), nil
}

// evalRows is the transcript choreography every single-point opening
// shares: bind the root and the point, derive γ, absorb the proximity row
// γᵀ·M and the evaluation row eqHiᵀ·M, and draw the challenged columns.
func (s *StreamState) evalRows(rows RowAt, point []field.Element, tr *transcript.Transcript) (testRow, combined []field.Element, idx []int, err error) {
	if s.tree == nil {
		return nil, nil, nil, fmt.Errorf("pcs: no column tree (streamed RootOnly, or released); openings unavailable")
	}
	if n := s.comm.NumVars(); len(point) != n {
		return nil, nil, nil, fmt.Errorf("pcs: point arity %d, want %d", len(point), n)
	}
	numRows, numCols := s.params.NumRows, s.params.NumCols
	tr.AppendDigest("pcs/root", s.comm.Root)
	tr.AppendElements("pcs/point", point)
	gamma := tr.ChallengeElements("pcs/gamma", numRows)
	_, hi := splitPoint(point, numCols)
	both := combineRows(rows, numRows, numCols, gamma, eqTableOf(hi))
	tr.AppendElements("pcs/testrow", both[0])
	tr.AppendElements("pcs/evalrow", both[1])
	idx = tr.ChallengeIndices("pcs/cols", s.params.NumOpenings, s.enc.CodewordLen())
	return both[0], both[1], idx, nil
}

// evalValue is the claimed evaluation: the evaluation row folded by the
// column half of the point.
func evalValue(combined, point []field.Element, numCols int) field.Element {
	lo, _ := splitPoint(point, numCols)
	return field.InnerProduct(combined, eqTableOf(lo))
}

// openColumns returns the encoded matrix's columns at positions idx as
// OpenedColumns: without their zero tails, so the rows past the last
// nonzero message row (whose codewords are zero) are neither encoded nor
// stored. Every other message row is re-encoded through the cone of idx
// into a per-worker scratch codeword, so one codeword per worker is live
// beyond the result.
func (s *StreamState) openColumns(rows RowAt, idx []int) ([]OpenedColumn, error) {
	cone, err := s.enc.Cone(idx)
	if err != nil {
		return nil, err
	}
	numRows := s.params.NumRows
	for numRows > 0 && isZero(rows(numRows-1)) {
		numRows--
	}
	backing := make([]field.Element, len(idx)*numRows)
	cols := make([]OpenedColumn, len(idx))
	for k, j := range idx {
		cols[k] = OpenedColumn{Index: j, Values: backing[k*numRows : (k+1)*numRows : (k+1)*numRows]}
	}
	k := par.Chunks(0, numRows)
	errs := make([]error, k)
	par.ForChunks(k, numRows, func(c, lo, hi int) {
		sc := par.GetScratch()
		defer par.PutScratch(sc)
		cw := sc.Elements(0, s.enc.CodewordLen())
		for r := lo; r < hi; r++ {
			row := rows(r)
			if isZero(row) {
				continue // its codeword is zero, as cols already is
			}
			if errs[c] = cone.EncodeInto(cw, row); errs[c] != nil {
				return
			}
			for ki, j := range idx {
				cols[ki].Values[r] = cw[j]
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for k := range cols {
		cols[k].Values = TrimZeros(cols[k].Values)
	}
	return cols, nil
}
