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

// Streaming-vs-buffered bit-identity: a commitment streamed in odd-sized
// chunks through a StreamingCommitter, then opened out-of-core through
// StreamState.ProveEval, must reproduce the buffered path byte for byte —
// same root, same proof, same transcript evolution — at widths
// 1/2/GOMAXPROCS and with flush blocks forced to odd boundaries.

func lowerStreamGrains(t *testing.T) {
	t.Helper()
	lowerGrains(t)
	oldB := streamRowBlock
	streamRowBlock = 3 // odd, so block boundaries land mid-matrix
	t.Cleanup(func() { streamRowBlock = oldB })
}

// streamCommit pushes values through a committer in chunks of the given
// size (0 = all at once).
func streamCommit(t *testing.T, values []field.Element, p Params, chunk int, mode CommitMode) *StreamState {
	t.Helper()
	sc, err := NewStreamingCommitter(p, mode)
	if err != nil {
		t.Fatal(err)
	}
	if chunk <= 0 {
		chunk = len(values)
	}
	for off := 0; off < len(values); off += chunk {
		end := off + chunk
		if end > len(values) {
			end = len(values)
		}
		if err := sc.AddChunk(values[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStreamingCommitRootBitIdentical(t *testing.T) {
	lowerStreamGrains(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logN := 6 + rng.Intn(3) // 64..256 values
		p := testParams(logN)
		values := field.RandVector(1 << logN)
		ref, err := Commit(values, p)
		if err != nil {
			return false
		}
		// Odd chunk sizes cross row boundaries; the carved carry path and
		// the whole-row fast path must agree with the buffered root.
		chunks := []int{0, 1 + rng.Intn(7), p.NumCols, p.NumCols + 3}
		// Flush blocks of one row, of an odd count, and of the shipped size:
		// each column's hasher gets its bytes in Writes of block·32.
		for _, streamRowBlock = range []int{1, 5, 16} {
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				par.SetWidth(w)
				for _, chunk := range chunks {
					for _, mode := range []CommitMode{RetainTree, RootOnly} {
						st := streamCommit(t, values, p, chunk, mode)
						if st.Commitment() != ref.Commitment() {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingProveEvalBitIdentical(t *testing.T) {
	lowerStreamGrains(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logN := 6 + rng.Intn(3)
		p := testParams(logN)
		values := field.RandVector(1 << logN)
		point := field.RandVector(logN)

		ref, err := Commit(values, p)
		if err != nil {
			return false
		}
		refTr := transcript.New("pcs")
		refProof, refValue, err := ref.ProveEval(point, refTr)
		if err != nil {
			return false
		}
		// The transcripts must have evolved identically, or a later
		// protocol phase would diverge: a post-proof challenge probes it.
		// Drawn once here; it advances refTr, so each (fresh) streaming
		// transcript below must land on the same value.
		refProbe := refTr.ChallengeElements("probe", 1)
		rowAt := func(r int) []field.Element {
			return values[r*p.NumCols : (r+1)*p.NumCols]
		}
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			par.SetWidth(w)
			st := streamCommit(t, values, p, 5, RetainTree)
			tr := transcript.New("pcs")
			proof, value, err := st.ProveEval(rowAt, point, tr)
			if err != nil {
				return false
			}
			if !value.Equal(&refValue) || !reflect.DeepEqual(proof, refProof) {
				return false
			}
			probe := tr.ChallengeElements("probe", 1)
			if !probe[0].Equal(&refProbe[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// The streamed proof must also verify — the end-to-end check that the
// out-of-core openings really open the streamed root.
func TestStreamingProofVerifies(t *testing.T) {
	lowerStreamGrains(t)
	p := testParams(8)
	values := field.RandVector(1 << 8)
	point := field.RandVector(8)
	st := streamCommit(t, values, p, 7, RetainTree)
	rowAt := func(r int) []field.Element {
		return values[r*p.NumCols : (r+1)*p.NumCols]
	}
	proof, value, err := st.ProveEval(rowAt, point, transcript.New("pcs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEval(st.Commitment(), point, value, proof, p, transcript.New("pcs")); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingCommitterErrors(t *testing.T) {
	p := testParams(6)
	sc, err := NewStreamingCommitter(p, RetainTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.AddChunk(field.RandVector(p.NumCols + 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Finish(); err == nil {
		t.Fatal("Finish accepted a mid-row stream")
	}

	sc2, _ := NewStreamingCommitter(p, RetainTree)
	if err := sc2.AddChunk(field.RandVector(p.NumRows*p.NumCols + p.NumCols)); err == nil {
		t.Fatal("AddChunk accepted more rows than the layout holds")
	}

	// RootOnly states cannot open, nor can states whose column tree was
	// released to the next commitment; both keep their commitment.
	values := field.RandVector(1 << 6)
	rowAt := func(r int) []field.Element { return values[r*p.NumCols : (r+1)*p.NumCols] }
	want := streamCommit(t, values, p, 0, RootOnly).Commitment()
	released := streamCommit(t, values, p, 0, RetainTree)
	released.Release()
	released.Release() // a second release does nothing
	for name, st := range map[string]*StreamState{"RootOnly": streamCommit(t, values, p, 0, RootOnly), "released": released} {
		if _, _, err := st.ProveEval(rowAt, field.RandVector(6), transcript.New("pcs")); err == nil {
			t.Fatalf("%s state answered an opening", name)
		}
		if st.Commitment() != want {
			t.Fatalf("%s state lost its commitment", name)
		}
	}
}
