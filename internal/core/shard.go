package core

import (
	"fmt"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/protocol"
	"batchzk/internal/telemetry"
)

// ShardedProver splits one batch across S independent prover shards —
// the multi-device scaling mode of §6: each shard is a full four-stage
// pipelined prover (one simulated device), jobs are scattered round-robin
// in submission order, and results are merged back deterministically so
// the combined stream is in global submission order with proofs
// bit-identical to the single-prover (and sequential-reference) output.
type ShardedProver struct {
	shards []*BatchProver
}

// NewShardedProver builds shards independent provers over the same
// circuit, each with its own in-flight budget of depth proofs (so total
// memory scales with shards·depth, one device budget per shard).
func NewShardedProver(c *circuit.Circuit, p *protocol.Params, shards, depth int) (*ShardedProver, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: shard count %d < 1", shards)
	}
	sp := &ShardedProver{shards: make([]*BatchProver, shards)}
	for i := range sp.shards {
		bp, err := NewBatchProver(c, p, depth)
		if err != nil {
			return nil, err
		}
		// Each shard knows its own index, so the shard's intake records
		// the assignment on every job's flight timeline as it lands.
		bp.shard = i
		sp.shards[i] = bp
	}
	return sp, nil
}

// Shards returns the number of prover shards.
func (sp *ShardedProver) Shards() int { return len(sp.shards) }

// Shard returns shard i, for per-shard inspection (stats, quarantine).
func (sp *ShardedProver) Shard(i int) *BatchProver { return sp.shards[i] }

// SetResilience installs the same failure-handling configuration on
// every shard. A shared *Resilience (including a shared fault injector,
// whose ledger is thread-safe) is fine: all per-attempt state lives in
// the shards.
func (sp *ShardedProver) SetResilience(r *Resilience) {
	for _, bp := range sp.shards {
		bp.SetResilience(r)
	}
}

// SetTelemetry directs every shard's metrics and spans into s.
func (sp *ShardedProver) SetTelemetry(s *telemetry.Sink) {
	for _, bp := range sp.shards {
		bp.SetTelemetry(s)
	}
}

// Stats aggregates the shards' counters.
func (sp *ShardedProver) Stats() Stats {
	var agg Stats
	for _, bp := range sp.shards {
		s := bp.Stats()
		agg.Completed += s.Completed
		agg.Failed += s.Failed
		agg.QueueDepth += s.QueueDepth
		for i := range agg.StageNs {
			agg.StageNs[i] += s.StageNs[i]
		}
		agg.Retries += s.Retries
		agg.Quarantined += s.Quarantined
		agg.Timeouts += s.Timeouts
		agg.PanicsRecovered += s.PanicsRecovered
	}
	return agg
}

// Quarantined returns the concatenated dead-letter lists of all shards.
func (sp *ShardedProver) Quarantined() []QuarantinedJob {
	var out []QuarantinedJob
	for _, bp := range sp.shards {
		out = append(out, bp.Quarantined()...)
	}
	return out
}

// Run scatters jobs round-robin across the shards (job k to shard k mod
// S, in submission order) and merges the shard outputs back in the same
// rotation. Because every shard emits its own jobs in submission order,
// the round-robin merge reconstructs the global submission order exactly
// — the sharded stream is indistinguishable from a single prover's,
// just wider.
func (sp *ShardedProver) Run(jobs <-chan Job) <-chan Result {
	s := len(sp.shards)
	ins := make([]chan Job, s)
	outs := make([]<-chan Result, s)
	for i := range ins {
		ins[i] = make(chan Job, sp.shards[i].depth)
		outs[i] = sp.shards[i].Run(ins[i])
	}

	go func() {
		k := 0
		for j := range jobs {
			ins[k%s] <- j
			k++
		}
		for i := range ins {
			close(ins[i])
		}
	}()

	results := make(chan Result, s)
	go func() {
		defer close(results)
		for {
			for i := 0; i < s; i++ {
				r, ok := <-outs[i]
				if !ok {
					// Shard i is drained. Round-robin scatter gives shard
					// i at least as many jobs as every shard after it, so
					// the whole rotation — and the run — is over.
					for _, rest := range outs[i+1:] {
						for range rest {
						}
					}
					return
				}
				results <- r
			}
		}
	}()
	return results
}

// ProveBatch is the convenience form: scatter a slice of jobs across the
// shards, collect all results in global submission order.
func (sp *ShardedProver) ProveBatch(jobs []Job) []Result {
	in := make(chan Job, len(jobs))
	for _, j := range jobs {
		in <- j
	}
	close(in)
	results := make([]Result, 0, len(jobs))
	for r := range sp.Run(in) {
		results = append(results, r)
	}
	return results
}

// Verify checks a result produced by any shard.
func (sp *ShardedProver) Verify(public []field.Element, proof *protocol.Proof) error {
	return protocol.Verify(sp.shards[0].c, sp.shards[0].p, public, proof)
}
