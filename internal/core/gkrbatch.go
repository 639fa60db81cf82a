package core

import (
	"fmt"

	"batchzk/internal/field"
	"batchzk/internal/gkr"
	"batchzk/internal/par"
	"batchzk/internal/pcs"
	"batchzk/internal/sched"
	"batchzk/internal/transcript"
)

// GKRJob is one committed-input GKR proof request.
type GKRJob struct {
	ID    int
	Input []field.Element
}

// GKRResult pairs a job with its proof, in submission order.
type GKRResult struct {
	ID    int
	Proof *gkr.CommittedProof
	Err   error
}

// gkrStageNames labels the GKR batch prover's three pipeline stages.
var gkrStageNames = [3]string{"commit", "layer-sumchecks", "opening"}

// GKRBatchProver streams committed-input GKR proofs (the Virgo/Orion
// protocol shape) through a three-stage pipeline on the same sched
// executor as BatchProver: commit (encoder + Merkle), evaluation and
// layer sum-checks, and the input opening. Like BatchProver, the emitted
// proofs are identical to the one-at-a-time gkr.ProveCommitted.
type GKRBatchProver struct {
	c      *gkr.Circuit
	params pcs.Params
	depth  int
}

// NewGKRBatchProver builds a batch prover for one layered circuit.
func NewGKRBatchProver(c *gkr.Circuit, params pcs.Params, depth int) (*GKRBatchProver, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil circuit")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if depth < 1 {
		return nil, fmt.Errorf("core: pipeline depth %d < 1", depth)
	}
	return &GKRBatchProver{c: c, params: params, depth: depth}, nil
}

// gkrMsg carries an in-flight GKR proof between stages.
type gkrMsg struct {
	id    int
	input []field.Element
	tr    *transcript.Transcript
	st    *pcs.ProverState
	comm  pcs.Commitment
	gkr   *gkr.Proof
	u, v  []field.Element
	proof *gkr.CommittedProof
	err   error
}

// processStage runs GKR stage `stage` on one message; a message that
// failed in an earlier stage passes through untouched.
func (bp *GKRBatchProver) processStage(stage int, m *gkrMsg) {
	if m.err != nil {
		return
	}
	switch stage {
	case 0:
		if len(m.input) > bp.c.InputSize {
			m.err = fmt.Errorf("core: job %d input exceeds circuit input size", m.id)
			return
		}
		padded := make([]field.Element, bp.c.InputSize)
		copy(padded, m.input)
		if m.st, m.err = pcs.Commit(padded, bp.params); m.err != nil {
			return
		}
		m.comm = m.st.Commitment()
		m.tr = transcript.New(gkr.Domain)
		m.tr.AppendDigest("gkr/input-commitment", m.comm.Root)
	case 1:
		var values [][]field.Element
		if values, m.err = bp.c.Evaluate(m.input); m.err != nil {
			return
		}
		m.gkr, m.u, m.v, m.err = gkr.ProveFromValues(bp.c, values, m.tr)
	case 2:
		opening, _, err := m.st.ProveEvalMulti([][]field.Element{m.u, m.v}, m.tr)
		if m.err = err; err == nil {
			m.proof = &gkr.CommittedProof{GKR: m.gkr, Commitment: m.comm, Opening: opening}
		}
		m.st = nil // the column tree is dead once the opening exists
	}
}

// Run consumes jobs until the channel closes, emitting one result per job
// in submission order; the three stages work on different proofs
// concurrently, with at most depth proofs in flight.
func (bp *GKRBatchProver) Run(jobs <-chan GKRJob) <-chan GKRResult {
	g, err := sched.NewGraph(gkrStageNames[:], bp.processStage, sched.Options{Name: "gkr", InFlight: bp.depth})
	if err != nil {
		// Unreachable: the stages are fixed and depth is validated at
		// construction.
		panic(fmt.Sprintf("core: scheduler rejected GKR stage graph: %v", err))
	}
	g.SetRecover(func(stage int, m *gkrMsg, r any) {
		m.err = fmt.Errorf("core: GKR stage %s panicked on job %d: %v", gkrStageNames[stage], m.id, r)
	})
	// Intake is depth deep, as in BatchProver.Run, so a slow submitter
	// does not stall the stages; a result is handed out, freeing its slot,
	// when the consumer takes it.
	gin := make(chan gkrMsg, bp.depth)
	go func() {
		defer close(gin)
		for job := range jobs {
			gin <- gkrMsg{id: job.ID, input: job.Input}
		}
	}()
	results := make(chan GKRResult)
	go func() {
		defer close(results)
		g.Run(gin, func(m gkrMsg) {
			results <- GKRResult{ID: m.id, Proof: m.proof, Err: m.err}
		})
		par.ReleaseIdle()
	}()
	return results
}

// ProveBatch submits a slice of jobs and collects all results in order.
func (bp *GKRBatchProver) ProveBatch(jobs []GKRJob) []GKRResult {
	in := make(chan GKRJob)
	out := bp.Run(in)
	done := make(chan []GKRResult)
	go func() {
		var results []GKRResult
		for r := range out {
			results = append(results, r)
		}
		done <- results
	}()
	for _, j := range jobs {
		in <- j
	}
	close(in)
	return <-done
}

// Verify checks a result against the circuit and parameters.
func (bp *GKRBatchProver) Verify(proof *gkr.CommittedProof) ([]field.Element, error) {
	return gkr.VerifyCommitted(bp.c, proof, bp.params, transcript.New(gkr.Domain))
}
