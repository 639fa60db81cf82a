package sumcheck

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// The reference provers: refProveTriple and refProveProduct as they were
// before the first round moved onto a Source, refProve (Algorithm 1) and
// refProveAffine as they were before they moved onto the shared kernel.
// Each makes a separate pass for the claim and runs every round — the
// first included — over tables held in full.

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

func refProve(table []field.Element, tr *transcript.Transcript) (*Proof, []field.Element, field.Element) {
	n := 0
	for 1<<n < len(table) {
		n++
	}
	tables := [][]field.Element{table}
	var claim field.Element
	for b := range table {
		claim.Add(&claim, &table[b])
	}
	tr.AppendUint64("sumcheck/n", uint64(n))
	tr.AppendElement("sumcheck/claim", &claim)
	proof := &Proof{Rounds: make([]RoundPair, n)}
	challenges := make([]field.Element, n)
	for i := 0; i < n; i++ {
		half := len(tables[0]) / 2
		var rd RoundPair
		for b := 0; b < half; b++ {
			rd.P1.Add(&rd.P1, &tables[0][b])
			rd.P2.Add(&rd.P2, &tables[0][b+half])
		}
		proof.Rounds[i] = rd
		tr.AppendElement("sumcheck/p1", &rd.P1)
		tr.AppendElement("sumcheck/p2", &rd.P2)
		r := tr.ChallengeElement("sumcheck/r")
		challenges[i] = r
		refFold(&r, tables)
	}
	return proof, reversed(challenges), claim
}

func refProveAffine(at, vt, ct []field.Element, tr *transcript.Transcript) (*ProductProof, []field.Element, field.Element, [3]field.Element) {
	n := 0
	for 1<<n < len(at) {
		n++
	}
	tables := [][]field.Element{at, vt, ct}
	var claim, t field.Element
	for b := range at {
		t.Mul(&at[b], &vt[b])
		claim.Add(&claim, &t)
		claim.Add(&claim, &ct[b])
	}
	tr.AppendUint64("sumcheckA/n", uint64(n))
	tr.AppendElement("sumcheckA/claim", &claim)
	proof := &ProductProof{Rounds: make([]ProductRound, n)}
	challenges := make([]field.Element, n)
	for i := 0; i < n; i++ {
		a, v, c := tables[0], tables[1], tables[2]
		half := len(a) / 2
		var sums [3]field.Element
		var a2, v2, c2 field.Element
		for b := 0; b < half; b++ {
			t.Mul(&a[b], &v[b])
			sums[0].Add(&sums[0], &t)
			sums[0].Add(&sums[0], &c[b])
			t.Mul(&a[b+half], &v[b+half])
			sums[1].Add(&sums[1], &t)
			sums[1].Add(&sums[1], &c[b+half])
			a2.Lerp(&two, &a[b], &a[b+half])
			v2.Lerp(&two, &v[b], &v[b+half])
			c2.Lerp(&two, &c[b], &c[b+half])
			t.Mul(&a2, &v2)
			sums[2].Add(&sums[2], &t)
			sums[2].Add(&sums[2], &c2)
		}
		proof.Rounds[i] = ProductRound{At0: sums[0], At1: sums[1], At2: sums[2]}
		tr.AppendElements("sumcheckA/round", sums[:])
		r := tr.ChallengeElement("sumcheckA/r")
		challenges[i] = r
		refFold(&r, tables)
	}
	return proof, reversed(challenges), claim, [3]field.Element{tables[0][0], tables[1][0], tables[2][0]}
}

var two = field.NewElement(2)

// tripleXs are the points 0..3 the degree-3 round polynomial is sent at.
var tripleXs = [4]field.Element{field.NewElement(0), field.NewElement(1), field.NewElement(2), field.NewElement(3)}

// refTerms is the term callbacks as they were before their cut to the
// ALU floor: every table is Lerp'd to every point x of the round
// polynomial, and the entries' products summed there.
func refTerms(degree int, low, high [][]field.Element, acc []field.Element) {
	var v, t field.Element
	for b := range low[0] {
		for x := 0; x <= degree; x++ {
			t.SetOne()
			for k := 0; k < degree; k++ {
				v.Lerp(&tripleXs[x], &low[k][b], &high[k][b])
				t.Mul(&t, &v)
			}
			if len(low) > degree { // the affine form's additive table
				v.Lerp(&tripleXs[x], &low[degree][b], &high[degree][b])
				t.Add(&t, &v)
			}
			acc[x].Add(&acc[x], &t)
		}
	}
}

// TestTermsMatchLerpReference: the triple, product and affine terms add
// to the round values exactly what the Lerp-at-every-point reference
// adds, on blocks of length 0, 1 and 513, into accumulators that already
// hold a partial sum.
func TestTermsMatchLerpReference(t *testing.T) {
	for _, tc := range []struct {
		name      string
		k, degree int
		body      terms
	}{
		{"triple", 3, 3, tripleTerms},
		{"product", 2, 2, productTerms},
		{"affine", 3, 2, affineTerms},
	} {
		for _, n := range []int{0, 1, 513} {
			low, high := make([][]field.Element, tc.k), make([][]field.Element, tc.k)
			for i := range low {
				low[i], high[i] = field.RandVector(n), field.RandVector(n)
			}
			start := field.RandVector(tc.degree + 1)
			got, want := append([]field.Element(nil), start...), append([]field.Element(nil), start...)
			tc.body(0, low, high, got)
			refTerms(tc.degree, low, high, want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s terms on %d entries differ from the Lerp reference", tc.name, n)
			}
		}
	}
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

// TestSourceProversMatchReference pins every variant on the shared kernel
// to its reference prover: same proof, point, claim, and final values, at
// several widths with the parallel grain forced down. The product
// prover is also fed zero-padded tables without their padding (including
// shorter than one half, and empty) through a Source; the eq-product
// prover is, in TestEqProductMatchesTriple.
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
			_, ep := shortTable(rng, n, size) // the eq-like table stays full
			fs, fp := shortTable(rng, n, real)
			gs, gp := shortTable(rng, n, max(real-1, 0))
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				par.SetWidth(w)
				wantP, wantPt, wantC, wantF := refProveTriple(ep, fp, gp, transcript.New("src"))
				gotP, gotPt, gotC, gotF, err := ProveTriple(multilinear(t, ep), multilinear(t, fp), multilinear(t, gp), transcript.New("src"))
				if err != nil || !reflect.DeepEqual(gotP, wantP) || !field.VectorEqual(gotPt, wantPt) || gotC != wantC || gotF != wantF {
					t.Fatalf("triple n=%d real=%d width=%d: differs from the reference prover", n, real, w)
				}
				wantQ, wantQt, wantD, wantG := refProveProduct(fp, gp, transcript.New("src"))
				gotQ, gotQt, gotD, gotG := ProveProductFrom(n, TableSource(fs, gs), transcript.New("src"))
				if !reflect.DeepEqual(gotQ, wantQ) || !field.VectorEqual(gotQt, wantQt) || gotD != wantD || gotG != wantG {
					t.Fatalf("product n=%d real=%d width=%d: differs from the reference prover", n, real, w)
				}
				if real != size {
					continue
				}
				em, fm, gm := multilinear(t, ep), multilinear(t, fp), multilinear(t, gp)
				wantR, wantRt, wantS := refProve(ep, transcript.New("src"))
				gotR, gotRt, gotS := Prove(em, transcript.New("src"))
				if !reflect.DeepEqual(gotR, wantR) || !field.VectorEqual(gotRt, wantRt) || gotS != wantS {
					t.Fatalf("plain n=%d width=%d: differs from the reference prover", n, w)
				}
				wantA, wantAt, claim, wantAF := refProveAffine(ep, fp, gp, transcript.New("src"))
				gotA, gotAt, gotAF, err := ProveAffineProduct(em, fm, gm, claim, transcript.New("src"))
				if err != nil || !reflect.DeepEqual(gotA, wantA) || !field.VectorEqual(gotAt, wantAt) || gotAF != wantAF {
					t.Fatalf("affine n=%d width=%d: differs from the reference prover (%v)", n, w, err)
				}
			}
		}
	}
}

func multilinear(t *testing.T, evals []field.Element) *poly.Multilinear {
	t.Helper()
	m, err := poly.NewMultilinear(evals)
	if err != nil {
		t.Fatal(err)
	}
	return m
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
