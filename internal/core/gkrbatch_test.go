package core

import (
	"reflect"
	"testing"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/gkr"
	"batchzk/internal/pcs"
	"batchzk/internal/transcript"
)

func gkrTestSetup(t testing.TB) (*gkr.Circuit, pcs.Params) {
	t.Helper()
	c := &gkr.Circuit{
		InputSize: 16,
		Layers: [][]gkr.Gate{
			{{Op: gkr.Add, In0: 0, In1: 1}, {Op: gkr.Mul, In0: 2, In1: 3}},
			{{Op: gkr.Mul, In0: 0, In1: 8}, {Op: gkr.Add, In0: 1, In1: 9},
				{Op: gkr.Mul, In0: 2, In1: 10}, {Op: gkr.Add, In0: 3, In1: 11}},
		},
	}
	params := pcs.Params{NumRows: 1, NumCols: 16, NumOpenings: 8, Enc: encoder.DefaultParams()}
	return c, params
}

// The batch prover's proofs are identical to the sequential prover's,
// in submission order, and a bad job in the middle of the batch fails in
// its own slot without disturbing its neighbours.
func TestGKRBatchMatchesSequential(t *testing.T) {
	c, params := gkrTestSetup(t)
	bp, err := NewGKRBatchProver(c, params, 3)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 3
	jobs := make([]GKRJob, 7)
	for i := range jobs {
		jobs[i] = GKRJob{ID: i, Input: field.RandVector(16)}
	}
	jobs[bad].Input = field.RandVector(99) // oversized
	results := bp.ProveBatch(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.ID != i {
			t.Fatalf("out of order: %d at %d", r.ID, i)
		}
		if i == bad {
			if r.Err == nil || r.Proof != nil {
				t.Fatalf("oversized job %d: err %v, proof %v", i, r.Err, r.Proof)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		want, err := gkr.ProveCommitted(c, jobs[i].Input, params, transcript.New(gkr.Domain))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Proof, want) {
			t.Fatalf("job %d: proof differs from sequential", i)
		}
		if _, err := bp.Verify(r.Proof); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

func TestGKRBatchValidation(t *testing.T) {
	c, params := gkrTestSetup(t)
	if _, err := NewGKRBatchProver(nil, params, 2); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if _, err := NewGKRBatchProver(c, params, 0); err == nil {
		t.Fatal("zero depth accepted")
	}
	bad := params
	bad.NumRows = 3
	if _, err := NewGKRBatchProver(c, bad, 2); err == nil {
		t.Fatal("bad params accepted")
	}
	bp, _ := NewGKRBatchProver(c, params, 2)
	results := bp.ProveBatch([]GKRJob{{ID: 0, Input: field.RandVector(99)}})
	if results[0].Err == nil {
		t.Fatal("oversized input accepted")
	}
}
