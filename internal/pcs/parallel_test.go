package pcs

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/transcript"
)

// Parallel-vs-serial bit-identity for the commitment pipeline end to end:
// row encoding, column hashing, row combination, and column openings must
// all reproduce the serial bytes at any width — the commitment root and
// the entire evaluation proof are compared structurally.

func lowerGrains(t *testing.T) {
	t.Helper()
	old := parallelCombine
	parallelCombine = 1
	t.Cleanup(func() {
		parallelCombine = old
		par.SetWidth(0)
	})
}

func TestCommitProveBitIdenticalAcrossWidths(t *testing.T) {
	lowerGrains(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logN := 6 + rng.Intn(3) // 64..256 values
		p := testParams(logN)
		values := make([]field.Element, 1<<logN)
		for i := range values {
			var b [64]byte
			rng.Read(b[:])
			values[i].SetBytesWide(b[:])
		}
		point := make([]field.Element, logN)
		for i := range point {
			var b [64]byte
			rng.Read(b[:])
			point[i].SetBytesWide(b[:])
		}
		var wantComm Commitment
		var wantProof *EvalProof
		var wantValue field.Element
		for wi, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			par.SetWidth(w)
			s, err := Commit(values, p)
			if err != nil {
				return false
			}
			proof, value, err := s.ProveEval(point, transcript.New("pcs"))
			if err != nil {
				return false
			}
			if wi == 0 {
				wantComm, wantProof, wantValue = s.Commitment(), proof, value
				continue
			}
			if s.Commitment() != wantComm || !value.Equal(&wantValue) {
				return false
			}
			if !reflect.DeepEqual(proof, wantProof) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCommitSerial65536 / BenchmarkCommitParallel65536 measure the
// ISSUE's headline kernel — a 2^16-value commitment — with the runtime
// forced serial vs. at full width. The parallel run first asserts the
// commitment root is bit-identical to the serial one.
func BenchmarkCommitSerial65536(b *testing.B) {
	benchCommit65536(b, 1)
}

func BenchmarkCommitParallel65536(b *testing.B) {
	benchCommit65536(b, 0)
}

func benchCommit65536(b *testing.B, width int) {
	p := testParams(16)
	values := field.RandVector(1 << 16)
	par.SetWidth(1)
	ref, err := Commit(values, p)
	if err != nil {
		b.Fatal(err)
	}
	par.SetWidth(width)
	defer par.SetWidth(0)
	s, err := Commit(values, p)
	if err != nil {
		b.Fatal(err)
	}
	if s.Commitment() != ref.Commitment() {
		b.Fatal("parallel commitment differs from serial")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Commit(values, p); err != nil {
			b.Fatal(err)
		}
	}
}
