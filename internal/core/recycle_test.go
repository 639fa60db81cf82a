package core

import (
	"bytes"
	"runtime"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/protocol"
)

// TestRecycledArenasNeverAliasProofs: a prover hands each proof's arena
// to a later proof once the result is out, so a proof that aliased its
// arena would be overwritten while the caller still holds it. Every proof
// of a run of 4·depth jobs over 3 inputs is held to the end, then must
// verify and be byte-equal to a one-shot protocol.Prove of its input.
// The third input arrives as a precomputed witness, so both ways into an
// arena are covered.
func TestRecycledArenasNeverAliasProofs(t *testing.T) {
	c, p := testCircuit(t)
	const depth = 2
	type input struct{ public, secret []field.Element }
	inputs := make([]input, 3)
	want := make([][]byte, len(inputs))
	for i := range inputs {
		inputs[i] = input{field.RandVector(2), field.RandVector(2)}
		proof, err := protocol.Prove(c, p, inputs[i].public, inputs[i].secret)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = proof.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	jobs := make([]Job, 4*depth)
	for k := range jobs {
		in := inputs[k%len(inputs)]
		jobs[k] = Job{ID: k, Public: in.public, Secret: in.secret}
		if k%len(inputs) == 2 {
			w, err := c.Evaluate(in.public, in.secret)
			if err != nil {
				t.Fatal(err)
			}
			jobs[k].Witness = w
		}
	}
	bp, err := NewBatchProver(c, p, depth)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardedProver(c, p, 2, depth)
	if err != nil {
		t.Fatal(err)
	}
	for name, prove := range map[string]func([]Job) []Result{"batch": bp.ProveBatch, "sharded": sp.ProveBatch} {
		results := prove(jobs)
		if len(results) != len(jobs) {
			t.Fatalf("%s: %d results for %d jobs", name, len(results), len(jobs))
		}
		for k, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: job %d: %v", name, k, r.Err)
			}
			in := inputs[k%len(inputs)]
			if err := protocol.Verify(c, p, in.public, r.Proof); err != nil {
				t.Fatalf("%s: job %d does not verify: %v", name, k, err)
			}
			got, err := r.Proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[k%len(inputs)]) {
				t.Fatalf("%s: job %d differs from a one-shot proof of its input", name, k)
			}
		}
	}
}

// TestSteadyStateAllocation: once its arenas and kernel buffers are warm,
// the prover allocates little beyond the proofs it returns — at most twice
// a serialised proof's size per proof, over 32 proofs at 2^10 gates,
// counted between the 32nd and the 64th emission of one run (a run's end
// releases the buffers). The race detector drops a share of sync.Pool
// puts on purpose, so the bound holds only without it.
func TestSteadyStateAllocation(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, err := circuit.RandomCircuit(1<<10, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := protocol.Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchProver(c, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Job, 4)
	for i := range inputs {
		inputs[i] = Job{Public: field.RandVector(2), Secret: field.RandVector(2)}
	}
	const warm, n = 32, 32
	var before, after runtime.MemStats
	var last *protocol.Proof
	pulled, emitted := 0, 0
	bp.ProveStream(func() (Job, bool) {
		if pulled == warm+n+4 {
			return Job{}, false
		}
		j := inputs[pulled%len(inputs)]
		j.ID = pulled
		pulled++
		return j, true
	}, func(r Result) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.ID, r.Err)
		}
		emitted++
		switch emitted {
		case warm:
			runtime.ReadMemStats(&before)
		case warm + n:
			runtime.ReadMemStats(&after)
			last = r.Proof
		}
	})
	size, err := last.Size()
	if err != nil {
		t.Fatal(err)
	}
	perProof := int(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d bytes allocated per proof; a serialised proof is %d bytes", perProof, size)
	if perProof > 2*size {
		t.Fatalf("%d bytes allocated per proof, more than twice the %d-byte proof", perProof, size)
	}
}
