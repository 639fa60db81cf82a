package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/transcript"
)

// TestBatchSumcheckGolden pins the pipelined sum-check's proofs on seeded
// tables, with each task's challenges drawn from a transcript of its own
// round messages, to a digest taken before the stage body moved onto the
// sum-check package's round step.
func TestBatchSumcheckGolden(t *testing.T) {
	const nVars, batch = 7, 5
	rng := rand.New(rand.NewSource(17))
	tables := make([][]field.Element, batch)
	trs := make([]*transcript.Transcript, batch)
	for i := range tables {
		tables[i] = make([]field.Element, 1<<nVars)
		for j := range tables[i] {
			var b [64]byte
			rng.Read(b[:])
			tables[i][j].SetBytesWide(b[:])
		}
		trs[i] = transcript.New("golden")
	}
	results, err := BatchSumcheck(tables, func(task, _ int, p1, p2 field.Element) field.Element {
		trs[task].AppendElement("p1", &p1)
		trs[task].AppendElement("p2", &p2)
		return trs[task].ChallengeElement("r")
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(es ...field.Element) {
		for i := range es {
			b := es[i].ToBytes()
			h.Write(b[:])
		}
	}
	for _, res := range results {
		for _, rd := range res.Proof.Rounds {
			put(rd.P1, rd.P2)
		}
		put(res.Final)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "e09dec82edcc9d33eb141e22e4adc3bf4ac49904ae17cb6801d72303ca5153fb"; got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
