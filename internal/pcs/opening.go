package pcs

import (
	"fmt"
	"math/bits"
	"slices"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/sha2"
)

// OpenedColumn is one spot-checked column of the encoded matrix. Values
// is the column without its zero tail: it never ends in a zero entry, and
// the entries missing up to the commitment's NumRows are zero. The rows
// past a committed vector's last nonzero row are padding (a third or more
// of the protocol's witness layouts), so a proof held in memory does not
// carry them; the wire form and the Merkle leaf still cover all NumRows.
type OpenedColumn struct {
	Index  int
	Values []field.Element
}

// Opening is the column half of an evaluation proof: the distinct
// challenged columns in increasing index order, and the Merkle siblings
// that authenticate all of them at once, deduplicated across their paths
// in merkle.MultiProof order. It carries no leaf digests: the verifier
// hashes each column itself, and a wrong column yields a wrong leaf.
type Opening struct {
	Columns  []OpenedColumn
	Siblings []sha2.Digest
}

// TrimZeros returns v without its trailing zero entries: the form
// OpenedColumn.Values is held in.
func TrimZeros(v []field.Element) []field.Element {
	n := len(v)
	for n > 0 && v[n-1].IsZero() {
		n--
	}
	return v[:n]
}

// TreeDepth is the depth of the commitment's column tree: one leaf per
// codeword position, encoder.RateInv·NumCols of them. An opening of t
// columns carries at most t·TreeDepth siblings.
func (c *Commitment) TreeDepth() int {
	return bits.Len(uint(encoder.RateInv*c.NumCols)) - 1
}

// distinct sorts the challenged indices in place and returns them each
// once; both callers own the slice ChallengeIndices returned.
func distinct(idx []int) []int {
	slices.Sort(idx)
	return slices.Compact(idx)
}

// open re-encodes the distinct columns of challenged and proves them
// against the column tree with one multiproof's siblings. Challenged
// indices come from the transcript, below the codeword length.
func (s *StreamState) open(rows RowAt, challenged []int) (Opening, error) {
	idx := distinct(challenged)
	cols, err := s.openColumns(rows, idx)
	if err != nil {
		return Opening{}, err
	}
	return Opening{Columns: cols, Siblings: s.tree.Siblings(idx)}, nil
}

// check verifies that o opens exactly the distinct challenged columns, in
// increasing order and each at most numRows long, and that the columns'
// hashes (zero tail restored) and the siblings authenticate to the root.
func (o *Opening) check(comm Commitment, challenged []int) error {
	want := distinct(challenged)
	if len(o.Columns) != len(want) {
		return fmt.Errorf("%w: %d opened columns, the challenge has %d distinct", ErrReject, len(o.Columns), len(want))
	}
	leaves := make([]sha2.Digest, len(want))
	for k, col := range o.Columns {
		switch {
		case col.Index != want[k]:
			return fmt.Errorf("%w: opened column %d is %d, challenged %d", ErrReject, k, col.Index, want[k])
		case len(col.Values) > comm.NumRows:
			return fmt.Errorf("%w: column %d has %d values, want at most %d", ErrReject, col.Index, len(col.Values), comm.NumRows)
		}
		leaves[k] = merkle.HashElementsPadded(col.Values, comm.NumRows)
	}
	mp := merkle.MultiProof{Indices: want, Leaves: leaves, Siblings: o.Siblings, NumLeaves: 1 << comm.TreeDepth()}
	if !merkle.VerifyMulti(comm.Root, &mp) {
		return fmt.Errorf("%w: column Merkle paths invalid", ErrReject)
	}
	return nil
}
