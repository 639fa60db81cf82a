// modules: the three computational modules of BatchZK used standalone —
// Merkle tree, sum-check protocol, and linear-time encoder — each one at a
// time and as a batch of independent tasks, with the batch results checked
// against the one-at-a-time ones.
//
//	go run ./examples/modules
package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"

	"batchzk"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "modules:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	for _, demo := range []func(io.Writer) error{merkleDemo, sumcheckDemo, encoderDemo} {
		if err := demo(w); err != nil {
			return err
		}
	}
	return nil
}

func merkleDemo(w io.Writer) error {
	// Commit to 64 data blocks, prove membership of block 13.
	r := rand.New(rand.NewSource(1))
	blocks := make([]batchzk.MerkleBlock, 64)
	for i := range blocks {
		r.Read(blocks[i][:])
	}
	tree, err := batchzk.BuildMerkleTree(blocks)
	if err != nil {
		return err
	}
	proof, err := tree.Prove(13)
	if err != nil {
		return err
	}
	if !batchzk.VerifyMerklePath(tree.Root(), proof) {
		return errors.New("merkle path did not verify")
	}
	fmt.Fprintf(w, "merkle: committed 64 blocks, proved block 13 with a %d-hash path\n", len(proof.Siblings))

	// Batch: 16 trees built as independent tasks.
	tasks := make([][]batchzk.MerkleBlock, 16)
	for t := range tasks {
		tasks[t] = make([]batchzk.MerkleBlock, 64)
		for i := range tasks[t] {
			r.Read(tasks[t][i][:])
		}
	}
	roots, err := batchzk.BatchMerkleRoots(tasks)
	if err != nil {
		return err
	}
	for t := range tasks {
		tree, err := batchzk.BuildMerkleTree(tasks[t])
		if err != nil {
			return err
		}
		if roots[t] != tree.Root() {
			return errors.New("batch root differs from a one-at-a-time build")
		}
	}
	fmt.Fprintf(w, "merkle: %d trees batch-generated, roots identical to one-at-a-time builds\n", len(roots))
	return nil
}

func sumcheckDemo(w io.Writer) error {
	// Prove that a 2^10-entry table sums to its claim, non-interactively.
	evals := batchzk.RandVector(1 << 10)
	proof, claim, err := batchzk.ProveSum("modules-demo", evals)
	if err != nil {
		return err
	}
	if err := batchzk.VerifySum("modules-demo", claim, proof, evals); err != nil {
		return err
	}
	fmt.Fprintf(w, "sumcheck: proved a 2^10 hypercube sum in %d rounds; verifier accepted\n", proof.NumRounds())

	// A wrong claim is rejected.
	bad := claim
	one := batchzk.NewElement(1)
	bad.Add(&bad, &one)
	if err := batchzk.VerifySum("modules-demo", bad, proof, evals); err == nil {
		return errors.New("wrong claim accepted")
	}
	fmt.Fprintln(w, "sumcheck: off-by-one claim rejected")

	// Batch: 8 proofs as independent tasks, here with fixed per-task
	// randomness.
	tables := make([][]batchzk.Element, 8)
	challenges := make([][]batchzk.Element, 8)
	for i := range tables {
		tables[i] = batchzk.RandVector(1 << 8)
		challenges[i] = batchzk.RandVector(8)
	}
	results, err := batchzk.BatchProveSums(tables, func(task, round int, _, _ batchzk.Element) batchzk.Element {
		return challenges[task][round]
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sumcheck: %d proofs batch-generated (%d rounds each)\n", len(results), results[0].Proof.NumRounds())
	return nil
}

func encoderDemo(w io.Writer) error {
	enc, err := batchzk.NewEncoder(256)
	if err != nil {
		return err
	}
	msg := batchzk.RandVector(256)
	cw, err := enc.Encode(msg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "encoder: 256 elements → %d-element codeword (rate 1/%d, systematic)\n",
		len(cw), len(cw)/len(msg))

	// Batch: 12 messages encoded as independent tasks.
	msgs := make([][]batchzk.Element, 12)
	for i := range msgs {
		msgs[i] = batchzk.RandVector(256)
	}
	codes, err := batchzk.BatchEncodeMessages(enc, msgs)
	if err != nil {
		return err
	}
	for i := range msgs {
		want, err := enc.Encode(msgs[i])
		if err != nil {
			return err
		}
		for j := range want {
			if !codes[i][j].Equal(&want[j]) {
				return errors.New("batch codeword differs")
			}
		}
	}
	fmt.Fprintf(w, "encoder: %d codewords batch-generated, identical to one-at-a-time encoding\n", len(codes))
	return nil
}
