package sumcheck

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/transcript"
)

// refProveTriple and refProveProduct are the provers as they were before
// the first round moved onto a Source: a separate pass for the claim, and
// every round — the first included — over tables held in full.

func refFold(r *field.Element, tables [][]field.Element) {
	half := len(tables[0]) / 2
	for t, tb := range tables {
		out := make([]field.Element, half)
		for b := range out {
			out[b].Lerp(r, &tb[b], &tb[b+half])
		}
		tables[t] = out
	}
}

func refProveTriple(et, ft, gt []field.Element, tr *transcript.Transcript) (*TripleProof, []field.Element, field.Element, [3]field.Element) {
	n := 0
	for 1<<n < len(et) {
		n++
	}
	tables := [][]field.Element{et, ft, gt}
	var claim, t field.Element
	for b := range et {
		t.Mul(&et[b], &ft[b])
		t.Mul(&t, &gt[b])
		claim.Add(&claim, &t)
	}
	tr.AppendUint64("sumcheck3/n", uint64(n))
	tr.AppendElement("sumcheck3/claim", &claim)
	proof := &TripleProof{Rounds: make([]TripleRound, n)}
	challenges := make([]field.Element, n)
	for i := 0; i < n; i++ {
		half := len(tables[0]) / 2
		var round TripleRound
		var ex, fx, gx field.Element
		for b := 0; b < half; b++ {
			for x := 0; x < 4; x++ {
				ex.Lerp(&tripleXs[x], &tables[0][b], &tables[0][b+half])
				fx.Lerp(&tripleXs[x], &tables[1][b], &tables[1][b+half])
				gx.Lerp(&tripleXs[x], &tables[2][b], &tables[2][b+half])
				t.Mul(&ex, &fx)
				t.Mul(&t, &gx)
				round.At[x].Add(&round.At[x], &t)
			}
		}
		proof.Rounds[i] = round
		tr.AppendElements("sumcheck3/round", round.At[:])
		r := tr.ChallengeElement("sumcheck3/r")
		challenges[i] = r
		refFold(&r, tables)
	}
	return proof, reversed(challenges), claim, [3]field.Element{tables[0][0], tables[1][0], tables[2][0]}
}

func refProveProduct(ft, gt []field.Element, tr *transcript.Transcript) (*ProductProof, []field.Element, field.Element, [2]field.Element) {
	n := 0
	for 1<<n < len(ft) {
		n++
	}
	tables := [][]field.Element{ft, gt}
	claim := field.InnerProduct(ft, gt)
	tr.AppendUint64("sumcheck2/n", uint64(n))
	tr.AppendElement("sumcheck2/claim", &claim)
	proof := &ProductProof{Rounds: make([]ProductRound, n)}
	challenges := make([]field.Element, n)
	for i := 0; i < n; i++ {
		var sums [3]field.Element
		half := len(tables[0]) / 2
		var t, f2, g2 field.Element
		for b := 0; b < half; b++ {
			t.Mul(&tables[0][b], &tables[1][b])
			sums[0].Add(&sums[0], &t)
			t.Mul(&tables[0][b+half], &tables[1][b+half])
			sums[1].Add(&sums[1], &t)
			f2.Lerp(&two, &tables[0][b], &tables[0][b+half])
			g2.Lerp(&two, &tables[1][b], &tables[1][b+half])
			t.Mul(&f2, &g2)
			sums[2].Add(&sums[2], &t)
		}
		proof.Rounds[i] = ProductRound{At0: sums[0], At1: sums[1], At2: sums[2]}
		tr.AppendElements("sumcheck2/round", sums[:])
		r := tr.ChallengeElement("sumcheck2/r")
		challenges[i] = r
		refFold(&r, tables)
	}
	return proof, reversed(challenges), claim, [2]field.Element{tables[0][0], tables[1][0]}
}

// shortTable is a random table of `real` entries padded with zeros to 2^n.
func shortTable(rng *rand.Rand, n, real int) (short, padded []field.Element) {
	padded = make([]field.Element, 1<<n)
	for i := 0; i < real; i++ {
		var b [64]byte
		rng.Read(b[:])
		padded[i].SetBytesWide(b[:])
	}
	return padded[:real], padded
}

// TestSourceProversMatchReference pins the Source-fed first round to the
// full-table provers: same proof, point, claim, and final values, for
// full tables, for zero-padded tables handed over without their padding
// (including shorter than one half, and empty), and at several widths
// with the parallel grain forced down.
func TestSourceProversMatchReference(t *testing.T) {
	lowerGrain(t)
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 2, 5, 11} {
		size := 1 << n
		reals := []int{size, size - size/3, size / 2, size/2 - 1, 1, 0}
		for _, real := range reals {
			if real < 0 {
				continue
			}
			es, ep := shortTable(rng, n, size) // the eq-like table stays full
			fs, fp := shortTable(rng, n, real)
			gs, gp := shortTable(rng, n, max(real-1, 0))
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				par.SetWidth(w)
				wantP, wantPt, wantC, wantF := refProveTriple(ep, fp, gp, transcript.New("src"))
				gotP, gotPt, gotC, gotF := ProveTripleFrom(n, TableSource(es, fs, gs), transcript.New("src"))
				if !reflect.DeepEqual(gotP, wantP) || !field.VectorEqual(gotPt, wantPt) || gotC != wantC || gotF != wantF {
					t.Fatalf("triple n=%d real=%d width=%d: differs from the reference prover", n, real, w)
				}
				wantQ, wantQt, wantD, wantG := refProveProduct(fp, gp, transcript.New("src"))
				gotQ, gotQt, gotD, gotG := ProveProductFrom(n, TableSource(fs, gs), transcript.New("src"))
				if !reflect.DeepEqual(gotQ, wantQ) || !field.VectorEqual(gotQt, wantQt) || gotD != wantD || gotG != wantG {
					t.Fatalf("product n=%d real=%d width=%d: differs from the reference prover", n, real, w)
				}
			}
		}
	}
}

// TestSourceFirstRoundStaysInBlocks: the prover asks a Source for blocks
// of at most sourceBlock entries within [0, 2^n), each entry once per
// pass over it.
func TestSourceFirstRoundStaysInBlocks(t *testing.T) {
	const n = 12
	calls := make([]int, 1<<n)
	var mu sync.Mutex
	table := field.RandVector(1 << n)
	src := func(lo int, dst [][]field.Element) {
		if len(dst[0]) > sourceBlock || lo+len(dst[0]) > 1<<n {
			t.Errorf("block [%d, %d) out of bounds", lo, lo+len(dst[0]))
		}
		mu.Lock()
		for i := range dst[0] {
			calls[lo+i]++
		}
		mu.Unlock()
		TableSource(table, table)(lo, dst)
	}
	ProveProductFrom(n, src, transcript.New("src"))
	for b, c := range calls {
		if c != sourceRounds+1 {
			t.Fatalf("entry %d fetched %d times, want %d (one evaluation per source round, one fold)", b, c, sourceRounds+1)
		}
	}
}
