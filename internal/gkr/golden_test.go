package gkr

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/pcs"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

func putElements(h hash.Hash, es ...field.Element) {
	for i := range es {
		b := es[i].ToBytes()
		h.Write(b[:])
	}
}

func putProof(h hash.Hash, p *Proof) {
	putElements(h, p.Outputs...)
	for _, lp := range p.Layers {
		for _, phase := range []*sumcheck.ProductProof{lp.Phase1, lp.Phase2} {
			for _, rd := range phase.Rounds {
				putElements(h, rd.At0, rd.At1, rd.At2)
			}
		}
		putElements(h, lp.VU, lp.VV)
	}
}

// seededInput is a deterministic random input vector.
func seededInput(seed int64, n int) []field.Element {
	rng := rand.New(rand.NewSource(seed))
	out := make([]field.Element, n)
	for i := range out {
		var b [64]byte
		rng.Read(b[:])
		out[i].SetBytesWide(b[:])
	}
	return out
}

// TestProofBytesGolden pins the bytes of a public-input and a committed-
// input GKR proof on a seeded circuit (proof, final points, opening with
// its shared siblings, and the transcript state they leave). The first
// digest dates from before the layer sum-checks moved onto the shared
// sum-check kernel; the second was re-pinned when the opening became one
// set of distinct columns under one multiproof.
func TestProofBytesGolden(t *testing.T) {
	c := randomCircuit(4, 32, 16, 31)
	in := seededInput(31, 16)

	h, tr := sha256.New(), transcript.New(Domain)
	proof, u, v, err := Prove(c, in, tr)
	if err != nil {
		t.Fatal(err)
	}
	putProof(h, proof)
	putElements(h, u...)
	putElements(h, v...)
	putElements(h, tr.ChallengeElement("golden/after"))
	if got, want := hex.EncodeToString(h.Sum(nil)), "8f7463e3c50411b0ccf02292e3fb580f46df71ce4cdbe23e20b792c3cefdd2de"; got != want {
		t.Errorf("Prove digest %s, want %s", got, want)
	}

	params := pcs.Params{NumRows: 1, NumCols: 16, NumOpenings: 8, Enc: encoder.DefaultParams()}
	h, tr = sha256.New(), transcript.New(Domain)
	cp, err := ProveCommitted(c, in, params, tr)
	if err != nil {
		t.Fatal(err)
	}
	putProof(h, cp.GKR)
	h.Write(cp.Commitment.Root[:])
	putElements(h, cp.Opening.TestRow...)
	for _, row := range cp.Opening.CombinedRows {
		putElements(h, row...)
	}
	for _, col := range cp.Opening.Columns {
		putElements(h, field.NewElement(uint64(col.Index)))
		putElements(h, col.Values...)
	}
	for _, s := range cp.Opening.Siblings {
		h.Write(s[:])
	}
	putElements(h, tr.ChallengeElement("golden/after"))
	if got, want := hex.EncodeToString(h.Sum(nil)), "d03e2920005ab27819b789be5abad62d94decd568b4e4f0891465541715cceaf"; got != want {
		t.Errorf("ProveCommitted digest %s, want %s", got, want)
	}
}
