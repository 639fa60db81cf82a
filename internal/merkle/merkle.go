// Package merkle implements the Merkle-tree commitment module of BatchZK
// (§2.2, §3.1 of the paper).
//
// Leaves are 512-bit data blocks hashed with the raw SHA-256 compression
// function; interior nodes hash the concatenation of their two children
// with one further compression (sha2.Compress2). A tree over N blocks
// therefore costs exactly 2N−1 compressions — the figure the paper's
// thread-allocation scheme (N + N/2 + … + 1 ≈ 2N) is built on.
//
// The package provides single-tree construction, authentication-path
// proofs, verification, and helpers to commit vectors of field elements
// (used by the polynomial commitment, where each column of the encoded
// matrix becomes one leaf).
package merkle

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/sha2"
)

// Parallel grain thresholds: levels/leaf batches below these sizes run
// serially, since a compression is tens of nanoseconds on SHA hardware and
// chunk dispatch is not free.
// Package vars so the parallel-vs-serial property tests can force the
// parallel path at small sizes.
var (
	parallelNodes   = 256 // interior nodes per level
	parallelLeaves  = 256 // leaf blocks hashed in Build
	parallelColumns = 4   // columns in HashColumns
)

// Block is a 512-bit input block, the unit the paper's Merkle module
// consumes.
type Block [sha2.BlockSize]byte

// Tree is a fully materialized Merkle tree. Layer 0 holds the leaf
// digests; the last layer holds the single root.
type Tree struct {
	layers [][]sha2.Digest
	// store holds the digest slices the layers live in, for Release to
	// hand back; nil on a tree Build made or one already released.
	store *treeStore
}

// treeStore is the memory of a tree BuildFromDigests made: the leaf copy,
// the interior arena and the layer headers. Release hands it to the next
// BuildFromDigests, so a prover that opens each commitment and moves on
// reuses one tree's memory instead of allocating its own.
type treeStore struct {
	leaves, arena []sha2.Digest
	layers        [][]sha2.Digest
}

var treeStores par.FreeList[treeStore]

// ErrEmpty is returned when building a tree over no data.
var ErrEmpty = errors.New("merkle: empty input")

// Build constructs a tree over 512-bit blocks. The block count must be a
// positive power of two (pad with PadBlocks if needed).
func Build(blocks []Block) (*Tree, error) {
	n := len(blocks)
	if n == 0 {
		return nil, ErrEmpty
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("merkle: %d blocks is not a power of two", n)
	}
	leaves := make([]sha2.Digest, n)
	w := 0
	if n < parallelLeaves {
		w = 1
	}
	par.ForWidth(w, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b := blocks[i]
			leaves[i] = sha2.Compress((*[sha2.BlockSize]byte)(&b))
		}
	})
	shape := shapeFor(n)
	t := &Tree{layers: make([][]sha2.Digest, 0, shape.levels+1)}
	t.build(leaves, make([]sha2.Digest, shape.total))
	return t, nil
}

// BuildFromDigests constructs a tree whose leaves are pre-computed digests
// (e.g. the roots of subtree commitments, as in the system's second-level
// tree in §4). The count must be a positive power of two. The leaves are
// copied, into memory a released tree handed back where there is one.
func BuildFromDigests(leaves []sha2.Digest) (*Tree, error) {
	n := len(leaves)
	if n == 0 {
		return nil, ErrEmpty
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("merkle: %d leaves is not a power of two", n)
	}
	st := treeStores.Get()
	st.leaves = grow(st.leaves, n)
	st.arena = grow(st.arena, shapeFor(n).total)
	copy(st.leaves, leaves)
	t := &Tree{layers: st.layers[:0], store: st}
	t.build(st.leaves, st.arena)
	st.layers = t.layers
	return t, nil
}

// grow returns buf resized to n digests, reallocating only when it is too
// short. The contents are unspecified.
func grow(buf []sha2.Digest, n int) []sha2.Digest {
	if cap(buf) < n {
		return make([]sha2.Digest, n)
	}
	return buf[:n]
}

// Release hands the memory of a tree BuildFromDigests made to a later
// BuildFromDigests. Nothing that Prove, ProveMulti or Siblings returned
// refers to it, but the tree itself must not be used afterwards. It does
// nothing to other trees or to one already released.
func (t *Tree) Release() {
	if t.store == nil {
		return
	}
	treeStores.Put(t.store)
	t.layers, t.store = nil, nil
}

// HashElements maps a vector of field elements to one leaf digest by
// hashing their canonical encodings. It is how the polynomial commitment
// turns a matrix column into a Merkle leaf.
func HashElements(es []field.Element) sha2.Digest {
	s := par.GetScratch()
	defer par.PutScratch(s)
	return HashElementsWith(s, es)
}

// hashBatch is how many elements are serialized per hasher Write: 4 KiB
// amortizes the call into crypto/sha256 and stays L1-resident.
const hashBatch = 128

// HashElementsWith is HashElements on a caller-owned scratch arena, which
// column loops reuse instead of borrowing one per column. Elements are
// serialized into the arena's byte buffer a batch at a time, so the hasher
// absorbs whole buffers instead of one 32-byte Write per element.
func HashElementsWith(s *par.Scratch, es []field.Element) sha2.Digest {
	return hashPadded(s, es, len(es))
}

// HashElementsPadded is HashElements of es followed by zeros up to n
// entries (none if n ≤ len(es)): the leaf of a column stored without its zero
// tail, hashed without building the padded column. The canonical encoding
// of zero is all zero bytes.
func HashElementsPadded(es []field.Element, n int) sha2.Digest {
	s := par.GetScratch()
	defer par.PutScratch(s)
	return hashPadded(s, es, n)
}

func hashPadded(s *par.Scratch, es []field.Element, n int) sha2.Digest {
	h := s.Hasher()
	buf := s.Bytes(min(max(n, len(es)), hashBatch) * field.Bytes)
	zeros := n - len(es)
	for len(es) > 0 {
		k := min(len(es), hashBatch)
		for i := range es[:k] {
			es[i].PutBytes(buf[i*field.Bytes:])
		}
		h.Write(buf[:k*field.Bytes])
		es = es[k:]
	}
	if zeros > 0 {
		clear(buf)
	}
	for ; zeros > 0; zeros -= hashBatch {
		h.Write(buf[:min(zeros, hashBatch)*field.Bytes])
	}
	return h.Sum()
}

// HashColumns hashes every column to its leaf digest, in parallel across
// columns with one reused scratch arena per worker. It is the
// leaf-production half of BuildFromColumns.
func HashColumns(cols [][]field.Element) []sha2.Digest {
	leaves := make([]sha2.Digest, len(cols))
	w := 0
	if len(cols) < parallelColumns {
		w = 1
	}
	par.ForScratch(w, len(cols), func(s *par.Scratch, lo, hi int) {
		for j := lo; j < hi; j++ {
			leaves[j] = HashElementsWith(s, cols[j])
		}
	})
	return leaves
}

// columnTile is how many adjacent columns ColumnBytes serializes per pass
// over the rows. With 16, every row contributes 512 contiguous bytes —
// eight cache lines, each fully used — where walking one column at a time
// touches one strided line per element and uses half of it. Package var
// so the tests can force tiles of one column and of more than there are.
var columnTile = 16

// ColumnBytes serializes columns [lo, hi) of a matrix held as rows of
// canonical limbs (field.FromMontgomery's output: the values themselves,
// not their Montgomery form) and hands fn, for each column j in ascending
// order, the bytes HashElements absorbs for the Montgomery-form column
// with those values (row 0's encoding first). It writes each entry's
// limbs big-endian with no field arithmetic, so a zero row costs no
// conversion either. enc lives in the scratch arena's byte buffer,
// columnTile·len(rows)·32 bytes, and is valid only during the call. This
// is how the commitment turns row-major codewords into leaf preimages
// without transposing the matrix.
func ColumnBytes(s *par.Scratch, rows [][]field.Element, lo, hi int, fn func(j int, enc []byte)) {
	if hi <= lo {
		return
	}
	stride := len(rows) * field.Bytes
	buf := s.Bytes(min(columnTile, hi-lo) * stride)
	for j0 := lo; j0 < hi; j0 += columnTile {
		t := min(columnTile, hi-j0)
		for r, row := range rows {
			tile := row[j0 : j0+t]
			for c := range tile {
				tile[c].PutLimbs(buf[c*stride+r*field.Bytes:])
			}
		}
		for c := 0; c < t; c++ {
			fn(j0+c, buf[c*stride:(c+1)*stride])
		}
	}
}

// BuildFromColumns commits to a matrix given by its columns: each column
// is hashed to a leaf and the tree built above them. Column count must be
// a power of two.
func BuildFromColumns(cols [][]field.Element) (*Tree, error) {
	return BuildFromDigests(HashColumns(cols))
}

// PadBlocks appends zero blocks until the length is a power of two.
func PadBlocks(blocks []Block) []Block {
	n := len(blocks)
	if n == 0 {
		return blocks
	}
	want := 1
	for want < n {
		want <<= 1
	}
	for len(blocks) < want {
		blocks = append(blocks, Block{})
	}
	return blocks
}

// levelShape is the cached interior layout of a tree over n leaves: the
// offset of each interior level inside one flat arena of n−1 digests.
// Every tree of a given leaf count shares the same shape, and batch
// workloads build thousands of same-shape trees (one per committed
// matrix), so the layout is computed once per shape.
type levelShape struct {
	levels  int   // interior levels above the leaves (log₂ n)
	offsets []int // offsets[l]: arena offset of interior level l
	total   int   // arena length, n − 1
}

var levelShapes sync.Map // leafCount → *levelShape

func shapeFor(n int) *levelShape {
	if s, ok := levelShapes.Load(n); ok {
		return s.(*levelShape)
	}
	s := &levelShape{}
	for sz := n / 2; sz >= 1; sz /= 2 {
		s.offsets = append(s.offsets, s.total)
		s.total += sz
		s.levels++
	}
	actual, _ := levelShapes.LoadOrStore(n, s)
	return actual.(*levelShape)
}

// build sets t's layers to a tree over leaves, appending to t.layers.
// Each level's nodes are independent, so a level hashes in parallel (the
// paper's §3.1 thread allocation: N/2 + N/4 + … threads per level);
// levels themselves are sequential since each consumes the previous one.
// All interior levels live in arena (at least n−1 digests), sliced by the
// cached per-shape layout, so a build allocates no digests of its own.
func (t *Tree) build(leaves, arena []sha2.Digest) {
	s := shapeFor(len(leaves))
	t.layers = append(t.layers, leaves)
	cur := leaves
	for l := 0; l < s.levels; l++ {
		next := arena[s.offsets[l] : s.offsets[l]+len(cur)/2]
		hashLevel(next, cur)
		t.layers = append(t.layers, next)
		cur = next
	}
}

// hashLevel fills next[i] = H(cur[2i] ‖ cur[2i+1]) for one tree level.
// Writes are disjoint by index, so any chunking is bit-identical to the
// serial loop.
func hashLevel(next, cur []sha2.Digest) {
	w := 0
	if len(next) < parallelNodes {
		w = 1
	}
	par.ForWidth(w, len(next), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			next[i] = sha2.Compress2(&cur[2*i], &cur[2*i+1])
		}
	})
}

// Root returns the Merkle root.
func (t *Tree) Root() sha2.Digest {
	top := t.layers[len(t.layers)-1]
	return top[0]
}

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int { return len(t.layers[0]) }

// Depth returns the number of hashing layers above the leaves (log2 N).
func (t *Tree) Depth() int { return len(t.layers) - 1 }

// Leaf returns the digest of leaf i.
func (t *Tree) Leaf(i int) (sha2.Digest, error) {
	if i < 0 || i >= t.NumLeaves() {
		return sha2.Digest{}, fmt.Errorf("merkle: leaf %d out of range [0,%d)", i, t.NumLeaves())
	}
	return t.layers[0][i], nil
}

// NumCompressions reports how many compression-function calls were needed
// to build this tree from digests upward; trees built from raw blocks add
// one compression per leaf. Used by the performance model for calibration.
func (t *Tree) NumCompressions() int {
	total := 0
	for _, l := range t.layers[1:] {
		total += len(l)
	}
	return total
}

// Proof is an authentication path proving that a leaf digest belongs to a
// root. Siblings are ordered leaf-to-root.
type Proof struct {
	Index    int
	Leaf     sha2.Digest
	Siblings []sha2.Digest
}

// Prove returns the authentication path for leaf i.
func (t *Tree) Prove(i int) (*Proof, error) {
	if i < 0 || i >= t.NumLeaves() {
		return nil, fmt.Errorf("merkle: leaf %d out of range [0,%d)", i, t.NumLeaves())
	}
	// Sized exactly: proofs outlive the prover (an opening carries 64 of
	// them), and append's growth would leave each path's backing array
	// rounded up to a power of two.
	p := &Proof{Index: i, Leaf: t.layers[0][i], Siblings: make([]sha2.Digest, t.Depth())}
	idx := i
	for l := range p.Siblings {
		p.Siblings[l] = t.layers[l][idx^1]
		idx >>= 1
	}
	return p, nil
}

// Verify checks an authentication path against a root.
func Verify(root sha2.Digest, p *Proof) bool {
	if p == nil || p.Index < 0 {
		return false
	}
	if uint(bits.Len(uint(p.Index))) > uint(len(p.Siblings)) {
		return false // index does not fit in the claimed tree depth
	}
	cur := p.Leaf
	idx := p.Index
	for _, sib := range p.Siblings {
		s := sib
		if idx&1 == 0 {
			cur = sha2.Compress2(&cur, &s)
		} else {
			cur = sha2.Compress2(&s, &cur)
		}
		idx >>= 1
	}
	return cur == root
}

// VerifyElements checks that a claimed column of field elements is the
// preimage of the proof's leaf and that the path is valid.
func VerifyElements(root sha2.Digest, p *Proof, column []field.Element) bool {
	if p == nil || HashElements(column) != p.Leaf {
		return false
	}
	return Verify(root, p)
}
