package batchzk

// Module-level API: the paper's three computational modules — Merkle
// tree, sum-check protocol, and linear-time encoder — exposed for
// standalone use ("these modules can work individually or together to
// support our fully pipelined ZKP system", §1). The Batch* functions run
// the pipelined executors of §3: tasks stream through stage-dedicated
// workers and the results are bit-identical to the one-at-a-time
// functions.

import (
	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/pipeline"
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

// BatchMerkleRoots builds one tree root per task through the pipelined
// layer-per-stage executor of §3.1. All tasks must share one
// power-of-two block count.
func BatchMerkleRoots(tasks [][]MerkleBlock) ([]Digest, error) {
	return pipeline.BatchMerkle(tasks)
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

// SumcheckChallenge supplies round randomness to BatchProveSums.
type SumcheckChallenge = pipeline.SumcheckChallenge

// SumcheckResult is one task's proof from the pipelined module.
type SumcheckResult = pipeline.SumcheckResult

// BatchProveSums generates one sum-check proof per table through the
// pipelined round-per-stage executor of §3.2 (with the double-buffer
// memory discipline of Figure 5). The challenge callback supplies each
// task's round randomness, as the full system derives it from Merkle
// roots.
func BatchProveSums(tables [][]Element, challenge SumcheckChallenge) ([]SumcheckResult, error) {
	return pipeline.BatchSumcheck(tables, challenge)
}

// Encoder is a linear-time (Spielman/expander) encoder for a fixed
// power-of-two message length; codewords are 4× the message.
type Encoder = encoder.Encoder

// NewEncoder samples an encoder with the default expander parameters.
func NewEncoder(msgLen int) (*Encoder, error) {
	return encoder.New(msgLen, encoder.DefaultParams())
}

// BatchEncodeMessages encodes one message per task through the
// two-pipeline executor of §3.3 (Figure 6); the codewords equal
// enc.Encode on each message.
func BatchEncodeMessages(enc *Encoder, msgs [][]Element) ([][]Element, error) {
	return pipeline.BatchEncode(enc, msgs)
}

func newMultilinear(evals []Element) (*poly.Multilinear, error) {
	cp := make([]field.Element, len(evals))
	copy(cp, evals)
	return poly.NewMultilinear(cp)
}
