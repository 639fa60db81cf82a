package core

import (
	"errors"
	"fmt"
	"time"

	"batchzk/internal/obs"
)

// Failure semantics of the batch prover.
//
// The paper's service setting (§5 — proofs for millions of users) makes
// the pipeline's behavior on a bad job as important as its throughput:
// one poisoned job must not wedge the stream. The host prover's stage
// work is deterministic, so a failed stage is not retried (a retry
// would replay the same failure); the contract is:
//
//   - a stage that returns an error or panics fails that job only: its
//     Result.Err carries the chain and the job still flows to emission;
//   - results keep submission order, failed jobs included;
//   - with SetJobDeadline, a job that has outlived its deadline when a
//     stage begins is cut off with ErrJobDeadline;
//   - Stats.Failed, Timeouts and PanicsRecovered count these events,
//     mirrored to telemetry as core/jobs/failed, core/jobs/timeouts and
//     core/jobs/panics_recovered.

// ErrJobDeadline marks a job cut off for exceeding its pipeline deadline.
var ErrJobDeadline = errors.New("core: job deadline exceeded")

// SetJobDeadline bounds a job's wall time inside the pipeline, measured
// from its dequeue by the commit stage and checked as each stage
// begins. Zero (the default) disables it. Call before Run/ProveBatch.
func (bp *BatchProver) SetJobDeadline(d time.Duration) { bp.deadline = d }

// runStage runs stage i's work for one job unless an earlier stage
// already failed it. An error or a blown deadline fails the job; a panic
// unwinds through here (closing the stage's span and flight record) to
// the stage graph's recover handler, which fails the job the same way.
func (bp *BatchProver) runStage(i int, ins instruments, m *stageMsg, work func() error) {
	if m.err != nil {
		return
	}
	start := ins.flight.Now()
	defer func() {
		ins.flight.Stage(m.trace, StageNames[i], start, ins.flight.Now()-start, m.waitNs)
	}()
	bp.timeStage(i, ins, m.job.ID(), m.id, func() {
		if lived := bp.now().Sub(m.started); bp.deadline > 0 && lived > bp.deadline {
			bp.fail(ins, m, i, fmt.Errorf("%w: job %d lived %v > %v", ErrJobDeadline, m.id, lived.Round(time.Microsecond), bp.deadline))
			return
		}
		if bp.stageHook != nil {
			bp.stageHook(i, m.id)
		}
		if err := work(); err != nil {
			bp.fail(ins, m, i, err)
		}
	})
}

// recoverStage is the stage graph's panic handler: the panicking job
// fails, the pipeline moves on.
func (bp *BatchProver) recoverStage(ins instruments, stage int, m *stageMsg, r any) {
	bp.panicsRecovered.Add(1)
	ins.panics.Inc()
	bp.fail(ins, m, stage, fmt.Errorf("stage panicked: %v", r))
}

// fail records a job's terminal failure at a stage. The job keeps
// flowing to the result stage, so the stream never stalls on it.
func (bp *BatchProver) fail(ins instruments, m *stageMsg, stage int, err error) {
	m.err = fmt.Errorf("core: job %d failed at stage %s: %w", m.id, StageNames[stage], err)
	if errors.Is(err, ErrJobDeadline) {
		bp.timeouts.Add(1)
		ins.timeouts.Inc()
	}
	obs.Error("core", "job.failed",
		obs.Job(m.id), obs.Trace(m.trace), obs.Stage(StageNames[stage]),
		obs.Shard(bp.shard), obs.Err(err))
}
