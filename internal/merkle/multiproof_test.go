package merkle

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMultiProofRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr, _ := Build(randBlocks(r, 32))
	root := tr.Root()
	cases := [][]int{
		{0},
		{31},
		{0, 1}, // sibling pair: zero extra siblings at layer 0
		{3, 5, 8, 21},
		{0, 1, 2, 3, 4, 5, 6, 7}, // full subtree
		{7, 7, 7, 3},             // duplicates coalesce
	}
	for _, idxs := range cases {
		mp, err := tr.ProveMulti(idxs)
		if err != nil {
			t.Fatalf("%v: %v", idxs, err)
		}
		if !VerifyMulti(root, mp) {
			t.Fatalf("%v: multiproof rejected", idxs)
		}
	}
}

func TestMultiProofDeduplication(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr, _ := Build(randBlocks(r, 64))
	// A full subtree of 8 leaves needs siblings only above the subtree:
	// depth 6, subtree covers 3 levels → 3 siblings.
	mp, _ := tr.ProveMulti([]int{8, 9, 10, 11, 12, 13, 14, 15})
	if len(mp.Siblings) != 3 {
		t.Fatalf("full-subtree multiproof has %d siblings, want 3", len(mp.Siblings))
	}
	// Versus independent paths: 8 × 6 = 48 digests.
	single := 8 * tr.Depth()
	if len(mp.Siblings) >= single {
		t.Fatal("multiproof did not save anything")
	}
	// A sibling pair at layer 0 saves exactly one digest vs two paths.
	pair, _ := tr.ProveMulti([]int{20, 21})
	if len(pair.Siblings) != tr.Depth()-1 {
		t.Fatalf("pair multiproof has %d siblings, want %d", len(pair.Siblings), tr.Depth()-1)
	}
}

func TestMultiProofRejections(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tr, _ := Build(randBlocks(r, 16))
	root := tr.Root()
	if _, err := tr.ProveMulti(nil); err == nil {
		t.Fatal("empty index set accepted")
	}
	if _, err := tr.ProveMulti([]int{16}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := tr.ProveMulti([]int{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if VerifyMulti(root, nil) {
		t.Fatal("nil multiproof accepted")
	}

	mp, _ := tr.ProveMulti([]int{2, 9, 13})

	// Tampered leaf.
	tampered := *mp
	tampered.Leaves = append(tampered.Leaves[:0:0], mp.Leaves...)
	tampered.Leaves[1][0] ^= 1
	if VerifyMulti(root, &tampered) {
		t.Fatal("tampered leaf accepted")
	}
	// Tampered sibling.
	tampered = *mp
	tampered.Siblings = append(tampered.Siblings[:0:0], mp.Siblings...)
	tampered.Siblings[0][5] ^= 1
	if VerifyMulti(root, &tampered) {
		t.Fatal("tampered sibling accepted")
	}
	// Extra sibling (must be fully consumed).
	tampered = *mp
	tampered.Siblings = append(append(tampered.Siblings[:0:0], mp.Siblings...), mp.Siblings[0])
	if VerifyMulti(root, &tampered) {
		t.Fatal("trailing sibling accepted")
	}
	// Missing sibling.
	tampered = *mp
	tampered.Siblings = mp.Siblings[:len(mp.Siblings)-1]
	if VerifyMulti(root, &tampered) {
		t.Fatal("truncated siblings accepted")
	}
	// Wrong index ordering.
	tampered = *mp
	tampered.Indices = []int{9, 2, 13}
	if VerifyMulti(root, &tampered) {
		t.Fatal("unsorted indices accepted")
	}
	// Wrong tree width.
	tampered = *mp
	tampered.NumLeaves = 12
	if VerifyMulti(root, &tampered) {
		t.Fatal("non-power-of-two width accepted")
	}
	// Wrong root.
	badRoot := root
	badRoot[0] ^= 1
	if VerifyMulti(badRoot, mp) {
		t.Fatal("wrong root accepted")
	}
}

func TestMultiProofMatchesSinglePaths(t *testing.T) {
	// Property: for random index sets, the multiproof verifies iff every
	// single path verifies, and it is never larger than the sum of paths.
	rsrc := rand.New(rand.NewSource(4))
	f := func(seed int64, picks [5]uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr, _ := Build(randBlocks(r, 32))
		idxs := make([]int, 0, 5)
		for _, p := range picks {
			idxs = append(idxs, int(p)%32)
		}
		mp, err := tr.ProveMulti(idxs)
		if err != nil {
			return false
		}
		if !VerifyMulti(tr.Root(), mp) {
			return false
		}
		return len(mp.Siblings) <= len(mp.Indices)*tr.Depth()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rsrc}); err != nil {
		t.Fatal(err)
	}
}
