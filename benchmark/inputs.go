package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"

	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/protocol"
)

const numPublic, numSecret = 2, 2

// jobInput is one proving request. Everything the program receives is made
// here from the seed with math/rand, so the same seed gives the same
// circuit, the same jobs and therefore the same proof bytes.
type jobInput struct {
	Public, Secret []field.Element
}

func randElements(rng *rand.Rand, n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i].SetBigInt(new(big.Int).Rand(rng, field.Modulus()))
	}
	return out
}

// makePool derives the workload's distinct job inputs from the seed.
func makePool(seed int64, n int) []jobInput {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]jobInput, n)
	for i := range pool {
		pool[i] = jobInput{Public: randElements(rng, numPublic), Secret: randElements(rng, numSecret)}
	}
	return pool
}

// fixture is the proving problem of one run.
type fixture struct {
	w    workload
	c    *circuit.Circuit
	p    *protocol.Params
	pool []jobInput
}

// buildProblem is the part of set-up every workload shares: the circuit
// and its protocol parameters.
func buildProblem(w workload, seed int64, pool []jobInput) (*fixture, error) {
	c, err := circuit.RandomCircuit(1<<w.LogGates, numPublic, numSecret, seed)
	if err != nil {
		return nil, fmt.Errorf("build circuit: %w", err)
	}
	p, err := protocol.Setup(c)
	if err != nil {
		return nil, fmt.Errorf("protocol setup: %w", err)
	}
	return &fixture{w: w, c: c, p: p, pool: pool}, nil
}

func (f *fixture) job(seq int) core.Job {
	in := f.pool[seq%len(f.pool)]
	return core.Job{ID: seq, Public: in.Public, Secret: in.Secret}
}

// checker is the correctness gate. Every proof handed to it must verify
// and must have the bytes first seen for its pool index; one proof per
// run is bit-flipped and must be rejected.
type checker struct {
	f        *fixture
	rec      *record
	seen     [][sha256.Size]byte
	have     []bool
	verifyMs []float64
	sizes    []float64
	sample   []byte // one good proof, kept for the mutant
	sampleIn jobInput
}

func newChecker(f *fixture, rec *record) *checker {
	return &checker{f: f, rec: rec, seen: make([][sha256.Size]byte, len(f.pool)), have: make([]bool, len(f.pool))}
}

// check verifies one proof given as wire bytes (decoded first) or as a
// struct (encoded first), and compares its digest per pool index.
func (ck *checker) check(seq int, proof *protocol.Proof, wire []byte) {
	idx := seq % len(ck.f.pool)
	in := ck.f.pool[idx]
	if proof == nil {
		proof = new(protocol.Proof)
		if err := proof.UnmarshalBinary(wire); err != nil {
			ck.rec.fail(fmt.Sprintf("job %d: decode: %v", seq, err))
			return
		}
	} else {
		var err error
		if wire, err = proof.MarshalBinary(); err != nil {
			ck.rec.fail(fmt.Sprintf("job %d: encode: %v", seq, err))
			return
		}
	}
	var verr error
	ck.verifyMs = append(ck.verifyMs, ms(timeIt(func() { verr = protocol.Verify(ck.f.c, ck.f.p, in.Public, proof) })))
	if verr != nil {
		ck.rec.fail(fmt.Sprintf("job %d: verify: %v", seq, verr))
		return
	}
	sum := sha256.Sum256(wire)
	switch {
	case !ck.have[idx]:
		ck.seen[idx], ck.have[idx] = sum, true
	case ck.seen[idx] != sum:
		ck.rec.fail(fmt.Sprintf("job %d: proof bytes differ from the first proof of input %d", seq, idx))
		return
	}
	ck.sizes = append(ck.sizes, float64(len(wire))/1024)
	if ck.sample == nil {
		ck.sample, ck.sampleIn = wire, in
	}
}

// mutant flips one seeded bit of a good proof, in the commitment root or
// in the last Merkle sibling (never in a length prefix, which the decoder
// would answer with a huge allocation), and requires rejection.
func (ck *checker) mutant(seed int64) {
	ck.rec.Attempted++
	if ck.sample == nil {
		ck.rec.fail("no proof to mutate")
		return
	}
	rng := rand.New(rand.NewSource(seed))
	bad := append([]byte(nil), ck.sample...)
	off := 4 + rng.Intn(32) // the root follows the 4-byte magic
	if rng.Intn(2) == 1 {
		off = len(bad) - 1 - rng.Intn(32)
	}
	bad[off] ^= 1 << rng.Intn(8)
	var p protocol.Proof
	if err := p.UnmarshalBinary(bad); err != nil {
		return
	}
	if protocol.Verify(ck.f.c, ck.f.p, ck.sampleIn.Public, &p) == nil {
		ck.rec.fail(fmt.Sprintf("bit-flipped proof (byte %d) was accepted", off))
	}
}

// digest is the SHA-256 over the per-input proof digests in pool order. It
// depends on the workload's circuit, seed and pool only, so it repeats
// across runs and is equal for batch-2e16 and stream-2e16.
func (ck *checker) digest() string {
	h := sha256.New()
	for i, ok := range ck.have {
		if !ok {
			ck.rec.fail(fmt.Sprintf("input %d was never proven", i))
			continue
		}
		h.Write(ck.seen[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
