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

// Out-of-core commitment. Commit materializes the full encoded matrix —
// RateInv× the message — and retains it until the opening phase. The
// streaming path below is the host-side analogue of the paper's dynamic
// per-cycle loading (§4): message rows arrive in chunks, each chunk is
// encoded, absorbed into per-column incremental hashers, and discarded.
// Peak memory is one chunk of codewords plus one SHA-256 state per
// encoded column (plus the column tree in proving mode) instead of the
// whole rows×cwLen matrix; the opening phase re-encodes rows on demand,
// trading recompute for working set. Roots, openings, and the transcript
// evolution are bit-identical to the buffered path — the property tests
// enforce it.

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

	block [][]field.Element // reusable per-flush codeword buffer
}

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
	sc := &StreamingCommitter{
		params:  params,
		mode:    mode,
		enc:     enc,
		colHash: make([]sha2.Hasher, enc.CodewordLen()),
	}
	return sc, nil
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
	for off := 0; off < nRows; off += streamRowBlock {
		b := nRows - off
		if b > streamRowBlock {
			b = streamRowBlock
		}
		if cap(sc.block) < b {
			sc.block = make([][]field.Element, b)
		}
		block := sc.block[:b]
		// Row-parallel encoding, as in Commit.
		k := par.Chunks(0, b)
		encErrs := make([]error, k)
		par.ForChunks(k, b, func(c, lo, hi int) {
			for i := lo; i < hi; i++ {
				r := off + i
				cw, err := sc.enc.Encode(vals[r*cols : (r+1)*cols])
				if err != nil {
					encErrs[c] = err
					return
				}
				block[i] = cw
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
		for i := range block {
			block[i] = nil // release this flush's codewords
		}
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
		leaves := make([]sha2.Digest, len(sc.colHash))
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
	sc.colHash = nil // hasher states are dead weight from here on
	return st, nil
}

// RowAt returns message-matrix row r (length NumCols). The opening phase
// calls it from multiple goroutines and may fetch the same row twice, so
// it must be safe for concurrent use and pure — typically a re-slice of
// the witness vector, or a re-read from wherever the row was spilled.
type RowAt func(r int) []field.Element

// ProveEval is ProverState.ProveEval for a streamed commitment: the same
// transcript choreography and a bit-identical proof, with the message
// matrix re-read through rows and the opened columns re-encoded on
// demand instead of served from a retained encoded matrix.
func (s *StreamState) ProveEval(rows RowAt, point []field.Element, tr *transcript.Transcript) (*EvalProof, field.Element, error) {
	if s.tree == nil {
		return nil, field.Element{}, fmt.Errorf("pcs: commitment was streamed RootOnly; openings unavailable")
	}
	n := s.comm.NumVars()
	if len(point) != n {
		return nil, field.Element{}, fmt.Errorf("pcs: point arity %d, want %d", len(point), n)
	}
	numRows, numCols := s.params.NumRows, s.params.NumCols
	tr.AppendDigest("pcs/root", s.comm.Root)
	tr.AppendElements("pcs/point", point)

	gamma := tr.ChallengeElements("pcs/gamma", numRows)
	lo, hi := splitPoint(point, numCols)
	eqHi := eqTableOf(hi)

	// One pass over the message rows computes both combined rows. Each
	// output column accumulates row terms top-to-bottom in exactly
	// combineRows' order, so the results are bit-identical; chunking by
	// column keeps the accumulator writes disjoint.
	testRow := make([]field.Element, numCols)
	combined := make([]field.Element, numCols)
	pw := 0
	if numCols*numRows < parallelCombine {
		pw = 1
	}
	par.ForWidth(pw, numCols, func(cLo, cHi int) {
		var t field.Element
		for r := 0; r < numRows; r++ {
			row := rows(r)
			if !gamma[r].IsZero() {
				for c := cLo; c < cHi; c++ {
					t.Mul(&gamma[r], &row[c])
					testRow[c].Add(&testRow[c], &t)
				}
			}
			if !eqHi[r].IsZero() {
				for c := cLo; c < cHi; c++ {
					t.Mul(&eqHi[r], &row[c])
					combined[c].Add(&combined[c], &t)
				}
			}
		}
	})
	tr.AppendElements("pcs/testrow", testRow)
	tr.AppendElements("pcs/evalrow", combined)

	idx := tr.ChallengeIndices("pcs/cols", s.params.NumOpenings, s.enc.CodewordLen())
	proof := &EvalProof{TestRow: testRow, CombinedRow: combined}
	proof.Columns = make([]OpenedColumn, len(idx))
	for k, j := range idx {
		proof.Columns[k] = OpenedColumn{
			Index:  j,
			Values: make([]field.Element, numRows),
		}
	}
	// Re-encode each message row once and scatter the challenged codeword
	// positions into the open columns: O(openings·rows) proof data live,
	// one row's codeword per worker in flight.
	k := par.Chunks(0, numRows)
	openErrs := make([]error, k)
	par.ForChunks(k, numRows, func(c, rLo, rHi int) {
		for r := rLo; r < rHi; r++ {
			cw, err := s.enc.Encode(rows(r))
			if err != nil {
				openErrs[c] = err
				return
			}
			for ki := range idx {
				proof.Columns[ki].Values[r] = cw[idx[ki]]
			}
		}
	})
	for _, err := range openErrs {
		if err != nil {
			return nil, field.Element{}, err
		}
	}
	for ki, j := range idx {
		mp, err := s.tree.Prove(j)
		if err != nil {
			return nil, field.Element{}, err
		}
		proof.Columns[ki].Proof = mp
	}

	eqLo := eqTableOf(lo)
	value := field.InnerProduct(combined, eqLo)
	return proof, value, nil
}
