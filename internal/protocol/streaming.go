package protocol

import (
	"fmt"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/pcs"
	"batchzk/internal/transcript"
)

// Streaming commitment mode. The buffered StartProof holds the PCS
// prover state — message rows plus the RateInv× encoded matrix — until
// the opening stage. In streaming mode the commitment is built through
// pcs.StreamingCommitter (per-column incremental hashers, no encoded
// matrix) and the opening re-encodes rows on demand from the padded
// witness, which must survive until Finish anyway for the linear check.
// Per in-flight proof this retires the largest single allocation of the
// pipeline while producing a bit-identical proof. In either mode the
// in-flight proof holds the padded copy of the witness and nothing else of
// it, and releases that copy at Finish.

// StartProofStreaming is StartProof with the commitment built
// out-of-core. The resulting InFlight runs the same RunHadamard /
// RunLinear / Finish stages and yields a bit-identical proof.
func StartProofStreaming(c *circuit.Circuit, p *Params, w circuit.Assignment) (*InFlight, error) {
	if len(w) != c.NumWires() {
		return nil, fmt.Errorf("protocol: witness length %d, want %d", len(w), c.NumWires())
	}
	padded := make([]field.Element, p.NumWires)
	copy(padded, w)
	sc, err := pcs.NewStreamingCommitter(p.PCS, pcs.RetainTree)
	if err != nil {
		return nil, err
	}
	// Row-aligned chunks: the committer encodes and discards each block,
	// so only streamRowBlock codeword rows are ever live.
	if err := sc.AddChunk(padded); err != nil {
		return nil, err
	}
	ss, err := sc.Finish()
	if err != nil {
		return nil, err
	}
	f := &InFlight{
		c: c, p: p, padded: padded, ss: ss,
		tr:    transcript.New(Domain),
		proof: &Proof{Commitment: ss.Commitment()},
	}
	f.proof.Outputs, err = c.OutputValues(w)
	if err != nil {
		return nil, err
	}
	f.tr.AppendDigest("commit", f.proof.Commitment.Root)
	f.tr.AppendElements("outputs", f.proof.Outputs)
	return f, nil
}

// ProveWitnessStreaming is ProveWitness over the streaming commitment
// path: same stages, same proof bytes, bounded working set.
func ProveWitnessStreaming(c *circuit.Circuit, p *Params, w circuit.Assignment) (*Proof, error) {
	f, err := StartProofStreaming(c, p, w)
	if err != nil {
		return nil, err
	}
	if err := f.RunHadamard(); err != nil {
		return nil, err
	}
	if err := f.RunLinear(); err != nil {
		return nil, err
	}
	return f.Finish()
}
