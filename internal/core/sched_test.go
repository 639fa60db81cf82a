package core

import (
	"errors"
	"testing"
	"time"

	"batchzk/internal/faults"
	"batchzk/internal/field"
	"batchzk/internal/gpusim"
	"batchzk/internal/perfmodel"
	"batchzk/internal/protocol"
)

// TestOrderingBitIdenticalUnderFaults is the pipeline's ordering
// invariant: with fault injection enabled (retries, stragglers and
// quarantines shuffling stage timings), results still arrive in
// submission order, every surviving proof is bit-identical to the
// sequential reference prover, and the quarantine ledger reconciles
// against the injector's.
func TestOrderingBitIdenticalUnderFaults(t *testing.T) {
	c, p := testCircuit(t)
	bp, err := NewBatchProver(c, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(chaosSeed)
	inj.EnableAll(0.05)
	inj.SetStragglerDelay(200*time.Microsecond, time.Millisecond)
	res := DefaultResilience()
	res.Injector = inj
	res.JobDeadline = 30 * time.Second
	bp.SetResilience(res)

	jobs := make([]Job, 48)
	for i := range jobs {
		jobs[i] = Job{ID: i, Public: field.RandVector(2), Secret: field.RandVector(2)}
	}
	results := bp.ProveBatch(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("lost results: %d of %d", len(results), len(jobs))
	}

	// Submission order, despite retries and stragglers inside the stages.
	for i, r := range results {
		if r.ID != i {
			t.Fatalf("out of order: job %d at position %d", r.ID, i)
		}
	}

	// Surviving proofs are bit-identical to the sequential reference.
	survivors := 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		survivors++
		want, err := protocol.Prove(c, p, jobs[r.ID].Public, jobs[r.ID].Secret)
		if err != nil {
			t.Fatal(err)
		}
		if r.Proof.Commitment.Root != want.Commitment.Root {
			t.Fatalf("job %d: commitment differs from sequential prover", r.ID)
		}
		if !r.Proof.OTau.Equal(&want.OTau) || !r.Proof.WSigma.Equal(&want.WSigma) {
			t.Fatalf("job %d: proof scalars differ from sequential prover", r.ID)
		}
	}
	if survivors == 0 {
		t.Fatal("no survivors — rates too hot for a meaningful run")
	}

	// The quarantine ledger reconciles: every injected fault resolved
	// exactly once, failures and dead letters agree, all jobs accounted.
	ls := inj.Stats()
	if totalInjected(ls) == 0 {
		t.Fatal("no faults injected — seed no longer exercises the fault paths")
	}
	if ls.Pending != 0 || inj.Conflicts() != 0 {
		t.Fatalf("ledger not reconciled: %+v conflicts=%d", ls, inj.Conflicts())
	}
	st := bp.Stats()
	if st.Failed != st.Quarantined {
		t.Fatalf("failed %d != quarantined %d", st.Failed, st.Quarantined)
	}
	if st.Completed+st.Failed != int64(len(jobs)) {
		t.Fatalf("jobs unaccounted: %d + %d != %d", st.Completed, st.Failed, len(jobs))
	}
	dead := bp.Quarantined()
	if int64(len(dead)) != st.Quarantined {
		t.Fatalf("dead letters %d != quarantined %d", len(dead), st.Quarantined)
	}
	deadIDs := make(map[int]bool)
	for _, q := range dead {
		deadIDs[q.ID] = true
	}
	for _, r := range results {
		if (r.Err != nil) != deadIDs[r.ID] {
			t.Fatalf("job %d: result error %v disagrees with dead-letter list", r.ID, r.Err)
		}
	}
}

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
