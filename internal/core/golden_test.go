package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/protocol"
)

// goldenProofDigest is the SHA-256 of the serialized proofs of three fixed
// jobs over a fixed 2^8-gate circuit, as every build since the BZK2 wire
// format (one shared-path opening) has produced them. Proof bytes are the
// contract: a change to hashing, the transcript, the commit paths or the
// sum-check provers that moves this digest has changed what verifiers
// see, however fast it is. A deliberate format change bumps the magic and
// re-pins this digest.
const goldenProofDigest = "fd42ab9d8d132d8df4dd54051c85b9693ad1573ae884a35668a802a6a4fd9806"

// goldenBatch builds the fixed circuit, its parameters and the three
// fixed jobs whose proofs hash to goldenProofDigest.
func goldenBatch(t testing.TB) (*circuit.Circuit, *protocol.Params, []Job) {
	t.Helper()
	const seed, jobs = 1, 3
	c, err := circuit.RandomCircuit(1<<8, 2, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := protocol.Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	elems := func(n int) []field.Element {
		out := make([]field.Element, n)
		for i := range out {
			out[i].SetBigInt(new(big.Int).Rand(rng, field.Modulus()))
		}
		return out
	}
	batch := make([]Job, jobs)
	for i := range batch {
		batch[i] = Job{ID: i, Public: elems(2), Secret: elems(2)}
	}
	return c, p, batch
}

func TestProofBytesGolden(t *testing.T) {
	c, p, batch := goldenBatch(t)
	jobs := len(batch)
	var err error
	digest := func(proofs []*protocol.Proof) string {
		h := sha256.New()
		for _, pr := range proofs {
			b, err := pr.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	type streamer interface {
		SetStreamingCommit(bool)
		ProveStream(func() (Job, bool), func(Result))
	}
	single := func() (streamer, error) { return NewBatchProver(c, p, 2) }
	sharded := func() (streamer, error) { return NewShardedProver(c, p, 2, 2) }
	pipelined := func(streamingCommit bool, build func() (streamer, error)) []*protocol.Proof {
		prover, err := build()
		if err != nil {
			t.Fatal(err)
		}
		prover.SetStreamingCommit(streamingCommit)
		proofs := make([]*protocol.Proof, 0, jobs)
		next := 0
		prover.ProveStream(func() (Job, bool) {
			if next == jobs {
				return Job{}, false
			}
			next++
			return batch[next-1], true
		}, func(r Result) {
			if r.Err != nil {
				t.Fatalf("job %d: %v", r.ID, r.Err)
			}
			proofs = append(proofs, r.Proof)
		})
		return proofs
	}

	oneShot := make([]*protocol.Proof, jobs)
	for i, j := range batch {
		if oneShot[i], err = protocol.Prove(c, p, j.Public, j.Secret); err != nil {
			t.Fatal(err)
		}
		if err := protocol.Verify(c, p, j.Public, oneShot[i]); err != nil {
			t.Fatalf("job %d does not verify: %v", i, err)
		}
	}
	for name, proofs := range map[string][]*protocol.Proof{
		"one-shot":  oneShot,
		"pipelined": pipelined(false, single),
		"streamed":  pipelined(true, single),
		"sharded":   pipelined(false, sharded),
	} {
		if got := digest(proofs); got != goldenProofDigest {
			t.Errorf("%s proofs hash to %s, want %s", name, got, goldenProofDigest)
		}
	}
}
