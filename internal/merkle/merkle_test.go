package merkle

import (
	"math/rand"
	"testing"
	"testing/quick"

	"batchzk/internal/field"
	"batchzk/internal/sha2"
)

func randBlocks(r *rand.Rand, n int) []Block {
	bs := make([]Block, n)
	for i := range bs {
		r.Read(bs[i][:])
	}
	return bs
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil); err != ErrEmpty {
		t.Fatalf("empty: %v", err)
	}
	if _, err := Build(make([]Block, 3)); err == nil {
		t.Fatal("accepted non-power-of-two")
	}
	if _, err := BuildFromDigests(nil); err != ErrEmpty {
		t.Fatal("empty digests accepted")
	}
	if _, err := BuildFromDigests(make([]sha2.Digest, 5)); err == nil {
		t.Fatal("accepted non-power-of-two digests")
	}
}

// TestLevelShapeCache: the cached arena layout must reproduce the naive
// level-by-level construction exactly — layer sizes, every digest, the
// root, and proofs — and same-shape builds must share one shape entry.
func TestLevelShapeCache(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 32, 128} {
		blocks := randBlocks(r, n)
		tr, err := Build(blocks)
		if err != nil {
			t.Fatal(err)
		}
		// Naive reference: hash levels with per-level allocations.
		cur := make([]sha2.Digest, n)
		for i := range blocks {
			b := blocks[i]
			cur[i] = sha2.Compress((*[sha2.BlockSize]byte)(&b))
		}
		level := 0
		for {
			if len(tr.layers[level]) != len(cur) {
				t.Fatalf("n=%d: layer %d has %d nodes, want %d", n, level, len(tr.layers[level]), len(cur))
			}
			for i := range cur {
				if tr.layers[level][i] != cur[i] {
					t.Fatalf("n=%d: layer %d node %d differs from naive build", n, level, i)
				}
			}
			if len(cur) == 1 {
				break
			}
			next := make([]sha2.Digest, len(cur)/2)
			for i := range next {
				next[i] = sha2.Compress2(&cur[2*i], &cur[2*i+1])
			}
			cur = next
			level++
		}
		if tr.Root() != cur[0] {
			t.Fatalf("n=%d: root differs from naive build", n)
		}
	}
	// Shape entries are shared across same-shape builds.
	if shapeFor(128) != shapeFor(128) {
		t.Fatal("same leaf count produced distinct shape entries")
	}
	s := shapeFor(8)
	if s.levels != 3 || s.total != 7 {
		t.Fatalf("shape for 8 leaves: levels=%d total=%d, want 3/7", s.levels, s.total)
	}
}

func TestSingleLeaf(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := randBlocks(r, 1)
	tr, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	blk := b[0]
	if tr.Root() != sha2.Compress((*[sha2.BlockSize]byte)(&blk)) {
		t.Fatal("single-leaf root should be the leaf hash")
	}
	if tr.Depth() != 0 || tr.NumLeaves() != 1 || tr.NumCompressions() != 0 {
		t.Fatalf("depth=%d leaves=%d comps=%d", tr.Depth(), tr.NumLeaves(), tr.NumCompressions())
	}
	p, err := tr.Prove(0)
	if err != nil || !Verify(tr.Root(), p) {
		t.Fatalf("single-leaf proof failed: %v", err)
	}
}

func TestRootMatchesManualComputation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	blocks := randBlocks(r, 4)
	tr, _ := Build(blocks)
	var l [4]sha2.Digest
	for i := range blocks {
		b := blocks[i]
		l[i] = sha2.Compress((*[sha2.BlockSize]byte)(&b))
	}
	n01 := sha2.Compress2(&l[0], &l[1])
	n23 := sha2.Compress2(&l[2], &l[3])
	want := sha2.Compress2(&n01, &n23)
	if tr.Root() != want {
		t.Fatal("root mismatch vs manual computation")
	}
	if tr.NumCompressions() != 3 {
		t.Fatalf("compressions = %d, want 3", tr.NumCompressions())
	}
}

func TestProveVerifyAllLeaves(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 8, 64} {
		tr, _ := Build(randBlocks(r, n))
		for i := 0; i < n; i++ {
			p, err := tr.Prove(i)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Siblings) != tr.Depth() {
				t.Fatalf("path length %d want %d", len(p.Siblings), tr.Depth())
			}
			if !Verify(tr.Root(), p) {
				t.Fatalf("n=%d leaf=%d verify failed", n, i)
			}
		}
		if _, err := tr.Prove(n); err == nil {
			t.Fatal("Prove accepted out-of-range index")
		}
		if _, err := tr.Prove(-1); err == nil {
			t.Fatal("Prove accepted negative index")
		}
		if _, err := tr.Leaf(n); err == nil {
			t.Fatal("Leaf accepted out-of-range index")
		}
	}
}

func TestTamperDetection(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tr, _ := Build(randBlocks(r, 16))
	p, _ := tr.Prove(5)
	root := tr.Root()

	bad := *p
	bad.Leaf[0] ^= 1
	if Verify(root, &bad) {
		t.Fatal("accepted tampered leaf")
	}

	bad = *p
	bad.Siblings = append([]sha2.Digest{}, p.Siblings...)
	bad.Siblings[2][7] ^= 1
	if Verify(root, &bad) {
		t.Fatal("accepted tampered sibling")
	}

	bad = *p
	bad.Index = 6
	if Verify(root, &bad) {
		t.Fatal("accepted wrong index")
	}

	badRoot := root
	badRoot[31] ^= 1
	if Verify(badRoot, p) {
		t.Fatal("accepted wrong root")
	}

	if Verify(root, nil) {
		t.Fatal("accepted nil proof")
	}
	short := *p
	short.Index = 1 << 20
	if Verify(root, &short) {
		t.Fatal("accepted index beyond claimed depth")
	}
}

func TestPropertyAnyBlockFlipChangesRoot(t *testing.T) {
	rsrc := rand.New(rand.NewSource(5))
	f := func(seed int64, leafPick, bytePick uint8) bool {
		r := rand.New(rand.NewSource(seed))
		blocks := randBlocks(r, 8)
		t1, _ := Build(blocks)
		i := int(leafPick) % 8
		j := int(bytePick) % sha2.BlockSize
		blocks[i][j] ^= 0x01
		t2, _ := Build(blocks)
		return t1.Root() != t2.Root()
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rsrc}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPadBlocks(t *testing.T) {
	if got := PadBlocks(nil); len(got) != 0 {
		t.Fatal("pad of empty should stay empty")
	}
	b := make([]Block, 5)
	p := PadBlocks(b)
	if len(p) != 8 {
		t.Fatalf("padded to %d", len(p))
	}
	b = make([]Block, 8)
	if got := PadBlocks(b); len(got) != 8 {
		t.Fatal("power-of-two input should be unchanged")
	}
}

func TestColumns(t *testing.T) {
	cols := [][]field.Element{
		{field.NewElement(1), field.NewElement(2)},
		{field.NewElement(3), field.NewElement(4)},
		{field.NewElement(5), field.NewElement(6)},
		{field.NewElement(7), field.NewElement(8)},
	}
	tr, err := BuildFromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := tr.Prove(2)
	if !VerifyElements(tr.Root(), p, cols[2]) {
		t.Fatal("column verify failed")
	}
	if VerifyElements(tr.Root(), p, cols[1]) {
		t.Fatal("accepted wrong column preimage")
	}
	if VerifyElements(tr.Root(), nil, cols[2]) {
		t.Fatal("accepted nil proof")
	}
	wrong := append([]field.Element{}, cols[2]...)
	wrong[0] = field.NewElement(999)
	if VerifyElements(tr.Root(), p, wrong) {
		t.Fatal("accepted tampered column")
	}
}

func TestSecondLevelTreeOfRoots(t *testing.T) {
	// The system (§4) builds a tree whose leaves are subtree roots.
	r := rand.New(rand.NewSource(6))
	var roots []sha2.Digest
	var subtrees []*Tree
	for i := 0; i < 4; i++ {
		st, _ := Build(randBlocks(r, 8))
		subtrees = append(subtrees, st)
		roots = append(roots, st.Root())
	}
	top, err := BuildFromDigests(roots)
	if err != nil {
		t.Fatal(err)
	}
	// Prove subtree 3's root under the top tree, and a leaf under subtree 3:
	// chaining both proofs links a data block to the global root.
	pTop, _ := top.Prove(3)
	if !Verify(top.Root(), pTop) || pTop.Leaf != subtrees[3].Root() {
		t.Fatal("top-level proof failed")
	}
	pLeaf, _ := subtrees[3].Prove(5)
	if !Verify(subtrees[3].Root(), pLeaf) {
		t.Fatal("subtree proof failed")
	}
}

func BenchmarkBuild4096(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	blocks := randBlocks(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(blocks); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHashElementsPaddedMatchesPaddedColumn: hashing a column's prefix
// with an implied zero tail gives the leaf of the column written out in
// full, across hashing-batch boundaries.
func TestHashElementsPaddedMatchesPaddedColumn(t *testing.T) {
	for _, tc := range []struct{ stored, n int }{{0, 0}, {0, 5}, {1, 1}, {3, 130}, {127, 128}, {128, 300}, {200, 200}} {
		full := make([]field.Element, tc.n)
		copy(full, field.RandVector(tc.stored))
		if got, want := HashElementsPadded(full[:tc.stored], tc.n), HashElements(full); got != want {
			t.Errorf("%d of %d entries: padded hash differs from the full column's", tc.stored, tc.n)
		}
	}
}

// A released tree's memory goes to the next BuildFromDigests: trees built
// in it, of the same leaf count or another, have the roots of trees built
// fresh, a second Release does nothing, and a same-size build-release
// cycle allocates neither digests nor layer headers.
func TestReleaseRecyclesTree(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	digests := func(n int) []sha2.Digest {
		out := make([]sha2.Digest, n)
		for i := range out {
			r.Read(out[i][:])
		}
		return out
	}
	sets := [][]sha2.Digest{digests(64), digests(16), digests(256), digests(1), digests(64)}
	want := make([]sha2.Digest, len(sets))
	for i, leaves := range sets {
		f := NewFrontierBuilder()
		for _, l := range leaves {
			f.Add(l)
		}
		var err error
		if want[i], err = f.Root(); err != nil {
			t.Fatal(err)
		}
	}
	for i, leaves := range sets {
		tr, err := BuildFromDigests(leaves)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Root() != want[i] || tr.NumLeaves() != len(leaves) {
			t.Fatalf("set %d: tree in recycled memory has the wrong root", i)
		}
		tr.Release()
		tr.Release()
	}
	leaves := sets[0]
	kept := testing.AllocsPerRun(20, func() { _, _ = BuildFromDigests(leaves) })
	recycled := testing.AllocsPerRun(20, func() {
		tr, _ := BuildFromDigests(leaves)
		tr.Release()
	})
	if recycled > kept-3 {
		t.Fatalf("a build-release cycle allocates %.0f times, a build alone %.0f: the leaves, arena and layer headers were not reused", recycled, kept)
	}
}
