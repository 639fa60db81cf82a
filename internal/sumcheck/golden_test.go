package sumcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// goldenHash writes field elements into a SHA-256, one canonical encoding
// each.
type goldenHash struct{ hash.Hash }

func (h goldenHash) put(es ...field.Element) {
	for i := range es {
		b := es[i].ToBytes()
		h.Write(b[:])
	}
}

// sum closes the digest with a challenge drawn from tr, so it also pins
// every byte the prover absorbed.
func (h goldenHash) sum(tr *transcript.Transcript) string {
	h.put(tr.ChallengeElement("golden/after"))
	return hex.EncodeToString(h.Sum(nil))
}

// seededTables returns k seeded random tables of 2^n entries.
func seededTables(seed int64, k, n int) []*poly.Multilinear {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*poly.Multilinear, k)
	for t := range out {
		out[t] = randMultilinearFrom(rng, n)
	}
	return out
}

// goldenProofs digests every prover's proof, point and final values on
// seeded tables with n variables, keyed by variant.
func goldenProofs(t *testing.T, n int) map[string]string {
	t.Helper()
	out := map[string]string{}
	ms := seededTables(int64(100+n), 3, n)

	h, tr := goldenHash{sha256.New()}, transcript.New("golden")
	proof, point, claim := Prove(ms[0], tr)
	for _, rd := range proof.Rounds {
		h.put(rd.P1, rd.P2)
	}
	h.put(point...)
	h.put(claim)
	out["plain"] = h.sum(tr)

	h = goldenHash{sha256.New()}
	rs := seededTables(int64(200+n), 1, n)[0].Evals()[:n]
	proof, final, err := ProveWithChallenges(ms[0], rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range proof.Rounds {
		h.put(rd.P1, rd.P2)
	}
	h.put(final)
	out["challenges"] = h.sum(transcript.New("golden"))

	h, tr = goldenHash{sha256.New()}, transcript.New("golden")
	pp, point, claim, finals2, err := ProveProduct(ms[0], ms[1], tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range pp.Rounds {
		h.put(rd.At0, rd.At1, rd.At2)
	}
	h.put(point...)
	h.put(claim)
	h.put(finals2[:]...)
	out["product"] = h.sum(tr)

	h, tr = goldenHash{sha256.New()}, transcript.New("golden")
	tp, point, claim, finals3, err := ProveTriple(ms[0], ms[1], ms[2], tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range tp.Rounds {
		h.put(rd.At[:]...)
	}
	h.put(point...)
	h.put(claim)
	h.put(finals3[:]...)
	out["triple"] = h.sum(tr)

	var affine, tmp field.Element
	at, vt, ct := ms[0].Evals(), ms[1].Evals(), ms[2].Evals()
	for b := range at {
		tmp.Mul(&at[b], &vt[b])
		affine.Add(&affine, &tmp)
		affine.Add(&affine, &ct[b])
	}
	h, tr = goldenHash{sha256.New()}, transcript.New("golden")
	ap, point, finals3, err := ProveAffineProduct(ms[0], ms[1], ms[2], affine, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range ap.Rounds {
		h.put(rd.At0, rd.At1, rd.At2)
	}
	h.put(point...)
	h.put(finals3[:]...)
	out["affine"] = h.sum(tr)
	return out
}

// TestProofBytesGolden pins every prover variant's output bytes (proof,
// point, finals and the transcript state they leave) to digests taken
// from the provers as they were before they shared one round kernel.
func TestProofBytesGolden(t *testing.T) {
	want := map[int]map[string]string{
		0: {
			"plain":      "5cc0dad4b5a6436bfb31740b651a0bfa0679d8ab7b48bad8430c8c880de9de87",
			"challenges": "1c8c784c9863de8dd8fbead28d335191c30962147d9dffb9da915f146eac26a7",
			"product":    "124e4671705c516266e221e51fa2f20b43c37ffb6fdfdb62d7226a58c074db5d",
			"triple":     "183200d28ec1b6179f6a34728bc73d2916ba0d0445bf39f9266a2c96f6a38b55",
			"affine":     "134ebc837081a61e4a95c3a019d55154334a2409649d996e3a55cd057016da3a",
		},
		1: {
			"plain":      "770986fcd2b08335ecbc4104e4e81d2b69e191bab0684690f90f5a3dad4e9f2b",
			"challenges": "dd8f17cee0fa6117e6d3b116c7cf38c1a206ef290899c47aca0c38021c75f9ba",
			"product":    "ac868a7360edaa25cf38ef2cb0cce29426c8ff1c7db8b8713f36e19ad592b5b3",
			"triple":     "1dd3a751a70264b45623aa52f3ee9f70be7a08b5f6f2957fdb348a4e9626e6f8",
			"affine":     "2b1f55874fac96c6490ee7716809af86905b74a2bc0b3d79767053a12b78010b",
		},
		5: {
			"plain":      "d37d2a39f17fb55548e75cf337089b9f86f59c033f446498b4c288cf920b8fcf",
			"challenges": "1e8a208c60b15d984f54d2cf94e5229675c1be59af4a19b894c6117d00476fa6",
			"product":    "3d7a73df18462d952df79453a4156db40a551f343826dbfcfd730f123bdcc03f",
			"triple":     "b31bb7abf7fa8ea43e5a7595e7ae003858bbc32ff68714be9c9b876985c16a40",
			"affine":     "531b298482897836face26b597d32d915266f99f68923c5d0b39f75f2a8bee54",
		},
		12: {
			"plain":      "28ff626b0508b9bef062d3b52eb2df6e3e047ca97867b1ab83232b67c5d64c2c",
			"challenges": "396ad5e40e64ed50780d991b4d797c89234d56f9a0d1adf4a5fb026984c3fa46",
			"product":    "cb81b95cb27a9894cffaa6563d67816023d729aaa16ccf2719de54c65e56df76",
			"triple":     "ac2c6edc8343f6544a0bdc16fb3004332bb65508b2e5ca82fa5b6e47997a57a5",
			"affine":     "69acec506d2c67db3fc2749cb2676b40258d158a040e3155291a7bf4ff6bd2af",
		},
	}
	for n, variants := range want {
		got := goldenProofs(t, n)
		for v, digest := range variants {
			if got[v] != digest {
				t.Errorf("n=%d %s: digest %s, want %s", n, v, got[v], digest)
			}
		}
	}
}
