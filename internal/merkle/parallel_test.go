package merkle

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/sha2"
)

// Parallel-vs-serial bit-identity: every parallel path must produce the
// exact digests of the serial loop for any width. Grain thresholds are
// lowered so the parallel paths trigger at test sizes, and the global
// runtime width is toggled between runs (package tests run sequentially,
// so the global toggle is race-free).

func lowerGrains(t *testing.T) {
	t.Helper()
	oldN, oldL, oldC := parallelNodes, parallelLeaves, parallelColumns
	parallelNodes, parallelLeaves, parallelColumns = 1, 1, 1
	t.Cleanup(func() {
		parallelNodes, parallelLeaves, parallelColumns = oldN, oldL, oldC
		par.SetWidth(0)
	})
}

func testWidths() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

func TestBuildBitIdenticalAcrossWidths(t *testing.T) {
	lowerGrains(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(4)) // 8..64 blocks (power of two required)
		blocks := make([]Block, n)
		for i := range blocks {
			rng.Read(blocks[i][:])
		}
		var want [32]byte
		for wi, w := range testWidths() {
			par.SetWidth(w)
			tree, err := Build(blocks)
			if err != nil {
				return false
			}
			root := tree.Root()
			if wi == 0 {
				want = root
			} else if root != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHashColumnsBitIdenticalAcrossWidths(t *testing.T) {
	lowerGrains(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Odd column count and odd, non-uniform column lengths: chunk
		// boundaries land mid-range.
		nCols := 3 + 2*rng.Intn(8) // 3..17, odd
		cols := make([][]field.Element, nCols)
		for j := range cols {
			cols[j] = field.RandVector(1 + rng.Intn(13))
		}
		var want []sha2.Digest
		for wi, w := range testWidths() {
			par.SetWidth(w)
			got := HashColumns(cols)
			if wi == 0 {
				want = got
				continue
			}
			for j := range got {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// HashElements is defined as SHA-256 over the concatenated canonical
// encodings; lengths straddle the serialization batch.
func TestHashElementsIsSHA256OfEncodings(t *testing.T) {
	for _, n := range []int{0, 1, 3, hashBatch - 1, hashBatch, hashBatch + 1, 2*hashBatch + 44} {
		es := field.RandVector(n)
		var enc []byte
		for i := range es {
			b := es[i].ToBytes()
			enc = append(enc, b[:]...)
		}
		if HashElements(es) != sha2.Digest(sha256.Sum256(enc)) {
			t.Fatalf("n=%d: HashElements is not SHA-256 of the encodings", n)
		}
	}
}

// ColumnBytes, given a row-major matrix's canonical limbs, must hand out
// for every column the preimage HashElements hashes for that column of
// the Montgomery-form matrix — for any tile size, any chunking of the
// column range, and shapes the tile does not divide. Every shape with
// more than one row has a zero row, which stays zero limbs.
func TestColumnBytesMatchesHashElements(t *testing.T) {
	lowerGrains(t)
	oldTile := columnTile
	t.Cleanup(func() { columnTile = oldTile })
	for _, shape := range [][2]int{{1, 1}, {1, 37}, {3, 16}, {3, 50}, {256, 21}} {
		nRows, nCols := shape[0], shape[1]
		rows := make([][]field.Element, nRows)
		canon := make([][]field.Element, nRows)
		for r := range rows {
			rows[r] = field.RandVector(nCols)
			if r == 1 {
				clear(rows[r])
			}
			canon[r] = make([]field.Element, nCols)
			field.FromMontgomery(canon[r], rows[r])
		}
		want := make([]sha2.Digest, nCols)
		col := make([]field.Element, nRows)
		for j := range want {
			for r := range rows {
				col[r] = rows[r][j]
			}
			want[j] = HashElements(col)
		}
		for _, columnTile = range []int{1, 5, 16, nCols + 3} {
			for _, w := range testWidths() {
				par.SetWidth(w)
				got := make([]sha2.Digest, nCols)
				par.ForScratch(0, nCols, func(s *par.Scratch, lo, hi int) {
					next := lo
					ColumnBytes(s, canon, lo, hi, func(j int, enc []byte) {
						if j != next {
							t.Errorf("column %d handed out of order (want %d)", j, next)
						}
						next++
						got[j] = sha2.Sum256(enc)
					})
					if next != hi {
						t.Errorf("columns [%d,%d): stopped at %d", lo, hi, next)
					}
				})
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%dx%d tile %d width %d: column %d differs", nRows, nCols, columnTile, w, j)
					}
				}
			}
		}
	}
}

// BenchmarkHashColumns is the leaf-hashing half of a 2^16-gate commit: the
// 256×2048 encoded matrix, one 8 KiB column per leaf.
func BenchmarkHashColumns(b *testing.B) {
	cols := make([][]field.Element, 2048)
	for j := range cols {
		cols[j] = field.RandVector(256)
	}
	b.SetBytes(2048 * 256 * field.Bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HashColumns(cols)
	}
}
