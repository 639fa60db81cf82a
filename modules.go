package batchzk

// Module-level API: the paper's three computational modules — Merkle
// tree, sum-check protocol, and linear-time encoder — exposed for
// standalone use ("these modules can work individually or together to
// support our fully pipelined ZKP system", §1). The Batch* functions run
// the one-at-a-time functions over a batch of independent tasks on the
// shared kernel pool; the paper's §3 module pipelines are modelled by the
// GPU simulator (RunExperiment), and the host's stage pipeline is
// NewBatchProver.

import (
	"errors"
	"fmt"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/sha2"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// Digest is a 256-bit SHA-256 digest.
type Digest = sha2.Digest

// MerkleBlock is a 512-bit Merkle input block.
type MerkleBlock = merkle.Block

// MerkleTree is a materialized Merkle tree with opening proofs.
type MerkleTree = merkle.Tree

// MerkleProof is an authentication path.
type MerkleProof = merkle.Proof

// BuildMerkleTree constructs a tree over 512-bit blocks (power-of-two
// count; see PadMerkleBlocks).
func BuildMerkleTree(blocks []MerkleBlock) (*MerkleTree, error) {
	return merkle.Build(blocks)
}

// PadMerkleBlocks pads a block slice to a power-of-two length.
func PadMerkleBlocks(blocks []MerkleBlock) []MerkleBlock {
	return merkle.PadBlocks(blocks)
}

// VerifyMerklePath checks an authentication path against a root.
func VerifyMerklePath(root Digest, proof *MerkleProof) bool {
	return merkle.Verify(root, proof)
}

// BatchMerkleRoots returns BuildMerkleTree(tasks[i]).Root() for every
// task; tasks may differ in block count. Tasks are independent: a task
// that fails (a block count that is not a positive power of two) fails
// alone and leaves its root zero, and the error joins "task i: cause" for
// every failed task (errors.Is reaches each cause). An empty batch is an
// error.
func BatchMerkleRoots(tasks [][]MerkleBlock) ([]Digest, error) {
	roots := make([]Digest, len(tasks))
	err := runBatch(len(tasks), func(i int) error {
		tree, err := merkle.Build(tasks[i])
		if err != nil {
			return err
		}
		roots[i] = tree.Root()
		return nil
	})
	return roots, err
}

// SumcheckProof is a sum-check proof (one message pair per variable).
type SumcheckProof = sumcheck.Proof

// ProveSum proves that the multilinear polynomial given by its
// evaluation table (power-of-two length) sums to the returned claim over
// the Boolean hypercube. The proof is non-interactive (Fiat–Shamir under
// the given domain label) and is verified with VerifySum.
func ProveSum(domain string, evals []Element) (*SumcheckProof, Element, error) {
	m, err := newMultilinear(evals)
	if err != nil {
		return nil, Element{}, err
	}
	proof, _, claim := sumcheck.Prove(m, transcript.New(domain))
	return proof, claim, nil
}

// VerifySum checks a ProveSum proof against the claim and the evaluation
// table (the standalone-module setting, where the verifier can evaluate
// the polynomial itself; inside the proof system the final evaluation is
// settled by a polynomial-commitment opening instead).
func VerifySum(domain string, claim Element, proof *SumcheckProof, evals []Element) error {
	m, err := newMultilinear(evals)
	if err != nil {
		return err
	}
	point, final, err := sumcheck.Verify(m.NumVars(), claim, proof, transcript.New(domain))
	if err != nil {
		return err
	}
	got, err := m.Evaluate(point)
	if err != nil {
		return err
	}
	if !got.Equal(&final) {
		return sumcheck.ErrReject
	}
	return nil
}

// SumcheckChallenge supplies the round randomness of BatchProveSums:
// called with the task index, the round number and the round's message
// (π_i1, π_i2), it returns r_i. The full system derives these from Merkle
// roots (§4); a caller may as well hand out fixed values.
type SumcheckChallenge func(task, round int, p1, p2 Element) Element

// SumcheckResult is one task's output of BatchProveSums: the round
// messages and the table folded down to its final value.
type SumcheckResult struct {
	Proof *SumcheckProof
	Final Element
}

// BatchProveSums proves one sum-check per table (a power-of-two length of
// at least 2) with the round randomness drawn from challenge, which may be
// called concurrently for different tasks but in round order within one
// task. Tasks are independent: a task that fails (a bad table size, or a
// panic in challenge) fails alone and leaves its result zero, and the
// error joins "task i: cause" for every failed task (errors.Is reaches
// each cause). An empty batch is an error.
func BatchProveSums(tables [][]Element, challenge SumcheckChallenge) ([]SumcheckResult, error) {
	results := make([]SumcheckResult, len(tables))
	err := runBatch(len(tables), func(t int) error {
		src := tables[t]
		if n := len(src); n < 2 || n&(n-1) != 0 {
			return fmt.Errorf("table size %d is not a power of two ≥ 2", n)
		}
		// Round 0 reads the caller's table; every later round folds one
		// pooled half-size buffer in place.
		s := par.GetScratch()
		defer par.PutScratch(s)
		buf := s.Elements(0, len(src)/2)
		var rounds []sumcheck.RoundPair
		for round := 0; len(src) > 1; round++ {
			dst := buf[:len(src)/2]
			rounds = append(rounds, sumcheck.Round(dst, src, func(m sumcheck.RoundPair) field.Element {
				return challenge(t, round, m.P1, m.P2)
			}))
			src = dst
		}
		results[t] = SumcheckResult{Proof: &sumcheck.Proof{Rounds: rounds}, Final: src[0]}
		return nil
	})
	return results, err
}

// Encoder is a linear-time (Spielman/expander) encoder for a fixed
// power-of-two message length; codewords are 4× the message.
type Encoder = encoder.Encoder

// NewEncoder samples an encoder with the default expander parameters.
func NewEncoder(msgLen int) (*Encoder, error) {
	return encoder.New(msgLen, encoder.DefaultParams())
}

// BatchEncodeMessages returns enc.Encode(msgs[i]) for every message.
// Tasks are independent: a task that fails (a message of the wrong
// length) fails alone and leaves its codeword nil, and the error joins
// "task i: cause" for every failed task (errors.Is reaches each cause).
// An empty batch is an error.
func BatchEncodeMessages(enc *Encoder, msgs [][]Element) ([][]Element, error) {
	codes := make([][]Element, len(msgs))
	err := runBatch(len(msgs), func(i int) (err error) {
		codes[i], err = enc.Encode(msgs[i])
		return err
	})
	return codes, err
}

// runBatch runs task(i) for every i < n on the par pool and returns
// errors.Join of "task i: cause" over the tasks that returned an error or
// panicked, in task order; the other tasks run to completion.
func runBatch(n int, task func(i int) error) error {
	if n == 0 {
		return errors.New("batchzk: empty batch")
	}
	errs := make([]error, n)
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := runTask(task, i); err != nil {
				errs[i] = fmt.Errorf("task %d: %w", i, err)
			}
		}
	})
	return errors.Join(errs...)
}

// runTask runs one task, turning a panic into its error (wrapping the
// panic value when it is an error).
func runTask(task func(i int) error, i int) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = fmt.Errorf("panic: %w", r)
		default:
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return task(i)
}

func newMultilinear(evals []Element) (*poly.Multilinear, error) {
	cp := make([]field.Element, len(evals))
	copy(cp, evals)
	return poly.NewMultilinear(cp)
}
