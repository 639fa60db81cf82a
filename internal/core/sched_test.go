package core

import (
	"errors"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/gpusim"
	"batchzk/internal/perfmodel"
	"batchzk/internal/protocol"
)

// The sharded prover must reconstruct global submission order and emit
// proofs bit-identical to a single prover's (and hence the sequential
// reference's).
func TestShardedProver(t *testing.T) {
	c, p := testCircuit(t)
	sp, err := NewShardedProver(c, p, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != 3 {
		t.Fatalf("Shards() = %d", sp.Shards())
	}
	jobs := make([]Job, 10) // not a multiple of 3: uneven tail rotation
	for i := range jobs {
		jobs[i] = Job{ID: i, Public: field.RandVector(2), Secret: field.RandVector(2)}
	}
	results := sp.ProveBatch(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.ID != i {
			t.Fatalf("merge broke submission order: %d at %d", r.ID, i)
		}
		want, err := protocol.Prove(c, p, jobs[i].Public, jobs[i].Secret)
		if err != nil {
			t.Fatal(err)
		}
		if r.Proof.Commitment.Root != want.Commitment.Root {
			t.Fatalf("job %d: commitment differs from sequential prover", i)
		}
		if err := sp.Verify(jobs[i].Public, r.Proof); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st := sp.Stats(); st.Completed != int64(len(jobs)) {
		t.Fatalf("aggregated completed = %d", st.Completed)
	}
	if _, err := NewShardedProver(c, p, 0, 4); err == nil {
		t.Fatal("accepted zero shards")
	}
}

func TestSimulateSystemSharded(t *testing.T) {
	spec := perfmodel.GH200()
	costs := perfmodel.GPUCosts()
	one, err := SimulateSystemSharded(spec, costs, 1<<16, 128, 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	four, err := SimulateSystemSharded(spec, costs, 1<<16, 128, 4, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(four.PerShard) != 4 {
		t.Fatalf("per-shard reports: %d", len(four.PerShard))
	}
	// Four devices finish the same batch materially faster than one.
	if four.TotalNs >= one.TotalNs {
		t.Fatalf("sharding did not help: %v vs %v", four.TotalNs, one.TotalNs)
	}
	ratio := four.ThroughputPerMs / one.ThroughputPerMs
	if ratio < 2.0 {
		t.Fatalf("4-shard throughput scaling = %.2f×", ratio)
	}
	// Per-device memory budgets are enforced per shard.
	if _, err := SimulateSystemSharded(spec, costs, 1<<16, 128, 4, true, 1<<20); !errors.Is(err, gpusim.ErrOutOfMemory) {
		t.Fatalf("starved device budget not rejected: %v", err)
	}
}
