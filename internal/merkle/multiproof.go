package merkle

import (
	"fmt"
	"sort"

	"batchzk/internal/sha2"
)

// MultiProof is a batched authentication proof for several leaves of one
// tree: instead of one full path per leaf, it carries only the sibling
// digests that the verifier cannot reconstruct, deduplicated across the
// paths. For the polynomial commitment's spot-checks (t columns of the
// same tree) this shrinks the openings substantially — the dominant part
// of the "several MB" proofs of this protocol family.
type MultiProof struct {
	// Indices of the proven leaves, strictly increasing.
	Indices []int
	// Leaves holds the digests of the proven leaves, aligned to Indices.
	Leaves []sha2.Digest
	// Siblings holds the needed sibling digests in the deterministic
	// order the verifier consumes them (layer by layer, left to right).
	Siblings []sha2.Digest
	// NumLeaves is the tree width the proof was generated for.
	NumLeaves int
}

// ProveMulti returns a deduplicated batched proof for the given leaf
// indices (duplicates are coalesced).
func (t *Tree) ProveMulti(indices []int) (*MultiProof, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("merkle: no indices to prove")
	}
	uniq := map[int]bool{}
	for _, i := range indices {
		if i < 0 || i >= t.NumLeaves() {
			return nil, fmt.Errorf("merkle: leaf %d out of range [0,%d)", i, t.NumLeaves())
		}
		uniq[i] = true
	}
	sorted := make([]int, 0, len(uniq))
	for i := range uniq {
		sorted = append(sorted, i)
	}
	sort.Ints(sorted)

	mp := &MultiProof{Indices: sorted, NumLeaves: t.NumLeaves(), Siblings: t.Siblings(sorted)}
	for _, i := range sorted {
		mp.Leaves = append(mp.Leaves, t.layers[0][i])
	}
	return mp, nil
}

// Siblings returns the sibling digests of a MultiProof for the leaves at
// sorted, which must be strictly increasing and in range, in the order
// VerifyMulti consumes them. The result is sized exactly (one walk counts,
// a second fills), since an opening holds it for the proof's lifetime.
func (t *Tree) Siblings(sorted []int) []sha2.Digest {
	known := make([]int, len(sorted))
	out := make([]sha2.Digest, t.walkSiblings(known, sorted, nil))
	t.walkSiblings(known, sorted, out)
	return out
}

// walkSiblings walks from the leaves at sorted to the root, keeping the
// known nodes of each layer in known (in place: a layer's parents never
// outnumber it). A sibling is needed only if it is not itself known; each
// needed one is written to out when out is non-nil. It returns how many
// are needed.
func (t *Tree) walkSiblings(known, sorted []int, out []sha2.Digest) int {
	known = known[:copy(known, sorted)]
	n := 0
	for l := 0; l < t.Depth(); l++ {
		next := 0
		for k := 0; k < len(known); k++ {
			idx := known[k]
			if k+1 < len(known) && known[k+1] == idx^1 {
				k++ // both children known: no sibling needed
			} else {
				if out != nil {
					out[n] = t.layers[l][idx^1]
				}
				n++
			}
			known[next] = idx / 2
			next++
		}
		known = known[:next]
	}
	return n
}

// VerifyMulti checks a batched proof against a root.
func VerifyMulti(root sha2.Digest, mp *MultiProof) bool {
	if mp == nil || len(mp.Indices) == 0 || len(mp.Indices) != len(mp.Leaves) {
		return false
	}
	if mp.NumLeaves <= 0 || mp.NumLeaves&(mp.NumLeaves-1) != 0 {
		return false
	}
	depth := 0
	for 1<<depth < mp.NumLeaves {
		depth++
	}
	// Indices must be strictly increasing and in range.
	for k, i := range mp.Indices {
		if i < 0 || i >= mp.NumLeaves {
			return false
		}
		if k > 0 && i <= mp.Indices[k-1] {
			return false
		}
	}

	type node struct {
		idx int
		d   sha2.Digest
	}
	frontier := make([]node, len(mp.Indices))
	for k := range mp.Indices {
		frontier[k] = node{idx: mp.Indices[k], d: mp.Leaves[k]}
	}
	sibPos := 0
	for l := 0; l < depth; l++ {
		var next []node
		for k := 0; k < len(frontier); k++ {
			cur := frontier[k]
			sib := cur.idx ^ 1
			var sibDigest sha2.Digest
			if k+1 < len(frontier) && frontier[k+1].idx == sib {
				sibDigest = frontier[k+1].d
				k++
			} else {
				if sibPos >= len(mp.Siblings) {
					return false
				}
				sibDigest = mp.Siblings[sibPos]
				sibPos++
			}
			var parent sha2.Digest
			if cur.idx&1 == 0 {
				parent = sha2.Compress2(&cur.d, &sibDigest)
			} else {
				parent = sha2.Compress2(&sibDigest, &cur.d)
			}
			next = append(next, node{idx: cur.idx / 2, d: parent})
		}
		frontier = next
	}
	if sibPos != len(mp.Siblings) || len(frontier) != 1 {
		return false
	}
	return frontier[0].d == root
}
