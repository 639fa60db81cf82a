package core

import (
	"sync/atomic"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/protocol"
)

// TestProveStreamBitIdentical: pulling jobs lazily through ProveStream
// under the out-of-core commit path must emit the same proofs, in the
// same order, as the sequential reference prover.
func TestProveStreamBitIdentical(t *testing.T) {
	c, p := testCircuit(t)
	bp, err := NewBatchProver(c, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	bp.SetStreamingCommit(true)

	const n = 6
	var jobs []Job
	for i := 0; i < n; i++ {
		jobs = append(jobs, Job{ID: i, Public: field.RandVector(2), Secret: field.RandVector(2)})
	}
	k := 0
	next := func() (Job, bool) {
		if k == len(jobs) {
			return Job{}, false
		}
		j := jobs[k]
		k++
		return j, true
	}
	var results []Result
	bp.ProveStream(next, func(r Result) { results = append(results, r) })

	if len(results) != n {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.ID != i {
			t.Fatalf("out of order: ID %d at %d", r.ID, i)
		}
		want, err := protocol.Prove(c, p, jobs[i].Public, jobs[i].Secret)
		if err != nil {
			t.Fatal(err)
		}
		if r.Proof.Commitment.Root != want.Commitment.Root {
			t.Fatalf("job %d: streamed commitment differs from sequential prover", i)
		}
		if !r.Proof.WSigma.Equal(&want.WSigma) {
			t.Fatalf("job %d: streamed proof scalars differ", i)
		}
		if err := bp.Verify(jobs[i].Public, r.Proof); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

// TestProveStreamBoundsPulls: the iterator is consulted only as the
// pipeline frees slots. Every spot a job can occupy between the
// iterator and the emitter is depth-sized or a single goroutine hand:
// producer hand (1) + forwarder hand (1) + submission buffer (depth) +
// admission hand (1) + scheduler in-flight window (depth), where a job
// keeps its slot until its result is handed out. The first hand-off
// frees one slot, so one more pull can land before emit reads the
// counter: at most 2·depth+4 jobs, within the 3·depth+3 asserted,
// independent of batch size.
func TestProveStreamBoundsPulls(t *testing.T) {
	c, p := testCircuit(t)
	const depth = 2
	bp, _ := NewBatchProver(c, p, depth)
	bp.SetStreamingCommit(true)

	const n = 16
	var pulled atomic.Int64
	next := func() (Job, bool) {
		i := int(pulled.Add(1)) - 1
		if i == n {
			return Job{}, false
		}
		return Job{ID: i, Public: field.RandVector(2), Secret: field.RandVector(2)}, true
	}
	var pulledAtFirst int64
	emitted := 0
	bp.ProveStream(next, func(r Result) {
		if emitted == 0 {
			pulledAtFirst = pulled.Load()
		}
		if r.Err != nil {
			t.Errorf("job %d: %v", r.ID, r.Err)
		}
		emitted++
	})
	if emitted != n {
		t.Fatalf("emitted %d of %d", emitted, n)
	}
	if pulledAtFirst > 3*depth+3 {
		t.Fatalf("%d jobs pulled before first emission; ingestion is not bounded", pulledAtFirst)
	}
}

// TestShardedProveStream: the sharded form keeps global submission order
// and verifiable proofs under the streaming commit path.
func TestShardedProveStream(t *testing.T) {
	c, p := testCircuit(t)
	sp, err := NewShardedProver(c, p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp.SetStreamingCommit(true)
	const n = 7
	pubs := make([][]field.Element, n)
	k := 0
	next := func() (Job, bool) {
		if k == n {
			return Job{}, false
		}
		pubs[k] = field.RandVector(2)
		j := Job{ID: k, Public: pubs[k], Secret: field.RandVector(2)}
		k++
		return j, true
	}
	i := 0
	sp.ProveStream(next, func(r Result) {
		if r.Err != nil {
			t.Errorf("job %d: %v", r.ID, r.Err)
			i++
			return
		}
		if r.ID != i {
			t.Errorf("out of order: ID %d at %d", r.ID, i)
		}
		if err := sp.Verify(pubs[r.ID], r.Proof); err != nil {
			t.Errorf("job %d: %v", r.ID, err)
		}
		i++
	})
	if i != n {
		t.Fatalf("emitted %d of %d", i, n)
	}
}

// TestStreamingCommitMatchesBuffered: flipping SetStreamingCommit must
// not change a single proof byte relative to the default path.
func TestStreamingCommitMatchesBuffered(t *testing.T) {
	c, p := testCircuit(t)
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, Job{ID: i, Public: field.RandVector(2), Secret: field.RandVector(2)})
	}
	buffered, _ := NewBatchProver(c, p, 2)
	streamed, _ := NewBatchProver(c, p, 2)
	streamed.SetStreamingCommit(true)
	rb := buffered.ProveBatch(jobs)
	rs := streamed.ProveBatch(jobs)
	for i := range jobs {
		if rb[i].Err != nil || rs[i].Err != nil {
			t.Fatalf("job %d: %v / %v", i, rb[i].Err, rs[i].Err)
		}
		if rb[i].Proof.Commitment.Root != rs[i].Proof.Commitment.Root {
			t.Fatalf("job %d: commitment differs across commit modes", i)
		}
		if !rb[i].Proof.WSigma.Equal(&rs[i].Proof.WSigma) {
			t.Fatalf("job %d: proof differs across commit modes", i)
		}
	}
}
