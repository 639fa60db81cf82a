package core

import (
	"errors"
	"fmt"
	"time"

	"batchzk/internal/telemetry"
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
//     sched/core/panics_recovered (counted by the stage graph that
//     recovers the panic).

// ErrJobDeadline marks a job cut off for exceeding its pipeline deadline.
var ErrJobDeadline = errors.New("core: job deadline exceeded")

// SetJobDeadline bounds a job's wall time inside the pipeline, measured
// from its dequeue by the commit stage and checked as each stage
// begins. Zero (the default) disables it. Call before Run/ProveBatch.
func (bp *BatchProver) SetJobDeadline(d time.Duration) { bp.deadline = d }

// runStage runs stage i's work for one job unless an earlier stage
// already failed it. An error or a blown deadline fails the job; a panic
// unwinds through here (closing the stage's span and recording its time)
// to the stage graph's recover handler, which fails the job the same way.
// Stats.StageNs times the stage on the wall clock; telemetry times it
// once, as the stage's span on the sink's clock, and hands that span's
// duration to the histogram, health window and flight timeline.
func (bp *BatchProver) runStage(i int, sink *telemetry.Sink, m *stageMsg, work func() error) {
	if m.err != nil {
		return
	}
	sp := sink.Trace().Begin("core", "stage/"+StageNames[i], m.job.ID(), i, m.id)
	sp.SetTrace(m.trace)
	start := time.Now()
	defer func() {
		bp.stageNs[i].Add(time.Since(start).Nanoseconds())
		sink.StageDone(m.trace, StageNames[i], sp.End())
	}()
	if lived := bp.now().Sub(m.started); bp.deadline > 0 && lived > bp.deadline {
		bp.fail(m, i, fmt.Errorf("%w: job %d lived %v > %v", ErrJobDeadline, m.id, lived.Round(time.Microsecond), bp.deadline))
		return
	}
	if bp.stageHook != nil {
		bp.stageHook(i, m.id)
	}
	if err := work(); err != nil {
		bp.fail(m, i, err)
	}
}

// recoverStage is the stage graph's panic handler: the panicking job
// fails, the pipeline moves on.
func (bp *BatchProver) recoverStage(stage int, m *stageMsg, r any) {
	bp.panicsRecovered.Add(1)
	bp.fail(m, stage, fmt.Errorf("stage panicked: %v", r))
}

// fail records a job's terminal failure at a stage. The job keeps
// flowing to the result stage, so the stream never stalls on it; the
// sink records the failure there, with the rest of the job's record.
func (bp *BatchProver) fail(m *stageMsg, stage int, err error) {
	m.err = fmt.Errorf("core: job %d failed at stage %s: %w", m.id, StageNames[stage], err)
	m.failedAt = StageNames[stage]
	if errors.Is(err, ErrJobDeadline) {
		bp.timeouts.Add(1)
	}
}
