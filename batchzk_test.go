package batchzk

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"batchzk/internal/sumcheck"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	b := NewCircuitBuilder()
	x := b.PublicInput()
	w := b.SecretInput()
	b.Output(b.Mul(b.Add(x, w), w))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	public := []Element{NewElement(3)}
	secret := []Element{NewElement(5)}
	proof, err := Prove(c, p, public, secret)
	if err != nil {
		t.Fatal(err)
	}
	// (3+5)·5 = 40
	if v, _ := proof.Outputs[0].Uint64(); v != 40 {
		t.Fatalf("output = %d", v)
	}
	if err := Verify(c, p, public, proof); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIBatch(t *testing.T) {
	c, err := RandomCircuit(32, 1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewBatchProver(c, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{ID: 0, Public: RandVector(1), Secret: RandVector(1)},
		{ID: 1, Public: RandVector(1), Secret: RandVector(1)},
	}
	results := prover.ProveBatch(jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if err := Verify(c, p, jobs[i].Public, r.Proof); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

func TestPublicAPIDevicesAndExperiments(t *testing.T) {
	if _, err := Device("GH200"); err != nil {
		t.Fatal(err)
	}
	if _, err := Device("not-a-gpu"); err == nil {
		t.Fatal("unknown device accepted")
	}
	ids := Experiments()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	spec, _ := Device("GH200")
	table, err := RunExperiment("table10", spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	table.Render(&buf)
	if !strings.Contains(buf.String(), "table10") {
		t.Fatal("render missing table id")
	}
	rep, err := SimulateSystem(spec, 1<<16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ThroughputPerMs() <= 0 {
		t.Fatal("degenerate system report")
	}
}

func TestPublicAPIModules(t *testing.T) {
	// Merkle.
	blocks := PadMerkleBlocks(make([]MerkleBlock, 5))
	tree, err := BuildMerkleTree(blocks)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := tree.Prove(2)
	if err != nil || !VerifyMerklePath(tree.Root(), mp) {
		t.Fatalf("merkle path: %v", err)
	}
	roots, err := BatchMerkleRoots([][]MerkleBlock{blocks, blocks})
	if err != nil || roots[0] != tree.Root() || roots[1] != tree.Root() {
		t.Fatalf("batch merkle: %v", err)
	}

	// Sum-check.
	evals := RandVector(64)
	sp, claim, err := ProveSum("t", evals)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySum("t", claim, sp, evals); err != nil {
		t.Fatal(err)
	}
	if err := VerifySum("other-domain", claim, sp, evals); err == nil {
		t.Fatal("domain separation ignored")
	}
	other := RandVector(64)
	if err := VerifySum("t", claim, sp, other); err == nil {
		t.Fatal("verified against the wrong table")
	}
	if _, _, err := ProveSum("t", RandVector(3)); err == nil {
		t.Fatal("non-power-of-two table accepted")
	}
	rs := RandVector(6)
	results, err := BatchProveSums([][]Element{RandVector(64)}, func(_, round int, _, _ Element) Element {
		return rs[round]
	})
	if err != nil || len(results) != 1 {
		t.Fatalf("batch sums: %v", err)
	}

	// Encoder.
	enc, err := NewEncoder(64)
	if err != nil {
		t.Fatal(err)
	}
	msg := RandVector(64)
	cw, err := enc.Encode(msg)
	if err != nil || len(cw) != 256 {
		t.Fatalf("encode: %v len %d", err, len(cw))
	}
	codes, err := BatchEncodeMessages(enc, [][]Element{msg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cw {
		if !codes[0][i].Equal(&cw[i]) {
			t.Fatal("batch codeword differs")
		}
	}
}

// TestVerifySumRejectsWrongRoundCount: a proof of the right claim with
// one round too few or too many — an honest proof over [claim, 0, …] of
// that size, so every round check passes — is rejected with ErrReject.
func TestVerifySumRejectsWrongRoundCount(t *testing.T) {
	evals := RandVector(32)
	_, claim, err := ProveSum("t", evals)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{16, 64} {
		forged := make([]Element, size)
		forged[0] = claim
		sp, _, err := ProveSum("t", forged)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySum("t", claim, sp, evals); !errors.Is(err, sumcheck.ErrReject) {
			t.Fatalf("%d-entry proof for a 32-entry table: got %v, want ErrReject", size, err)
		}
	}
}

func TestPublicAPIProofSerialization(t *testing.T) {
	c, _ := RandomCircuit(32, 1, 1, 9)
	p, _ := Setup(c)
	public := RandVector(1)
	proof, err := Prove(c, p, public, RandVector(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if err := Verify(c, p, public, &back); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIGKR(t *testing.T) {
	// x0·x1 + x2 over a 16-wide input layer: layer1 = [x0·x1, x2+0, …],
	// layer0 = [l1[0]+l1[1], l1[0]·l1[1]].
	c := &GKRCircuit{
		InputSize: 16,
		Layers: [][]GKRGate{
			{{Op: GKRAdd, In0: 0, In1: 1}, {Op: GKRMul, In0: 0, In1: 1}},
			{{Op: GKRMul, In0: 0, In1: 1}, {Op: GKRAdd, In0: 2, In1: 15}},
		},
	}
	input := make([]Element, 16)
	input[0] = NewElement(3)
	input[1] = NewElement(4)
	input[2] = NewElement(10)
	proof, err := GKRProve(c, input)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := GKRVerify(c, input, proof)
	if err != nil {
		t.Fatal(err)
	}
	// layer1 = [12, 10]; outputs = [22, 120].
	if v, _ := outs[0].Uint64(); v != 22 {
		t.Fatalf("out0 = %d", v)
	}
	if v, _ := outs[1].Uint64(); v != 120 {
		t.Fatalf("out1 = %d", v)
	}

	// Committed variant: prove without revealing the input.
	cp, err := GKRProveCommitted(c, input)
	if err != nil {
		t.Fatal(err)
	}
	outs2, err := GKRVerifyCommitted(c, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !outs2[1].Equal(&outs[1]) {
		t.Fatal("committed outputs differ")
	}
	small := &GKRCircuit{InputSize: 4, Layers: [][]GKRGate{{{Op: GKRAdd}, {Op: GKRAdd}}}}
	if _, err := GKRProveCommitted(small, make([]Element, 4)); err == nil {
		t.Fatal("tiny input accepted for committed GKR")
	}
}

func TestPublicAPIMLaaS(t *testing.T) {
	svc, err := NewMLaaSService(TinyCNN(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	img := RandImage(1, 8, 8, 4)
	preds, err := svc.HandleBatch([]*Tensor{img})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Err != nil {
		t.Fatal(preds[0].Err)
	}
	if err := svc.Client().VerifyPrediction(img, &preds[0]); err != nil {
		t.Fatal(err)
	}
	if VGG16(1).MulCount() < 100_000_000 {
		t.Fatal("VGG16 too small")
	}
}
