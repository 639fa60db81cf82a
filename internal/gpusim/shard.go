package gpusim

import (
	"fmt"
	"log/slog"

	"batchzk/internal/telemetry"
)

// ShardReport summarizes a sharded run: one batch split across several
// simulated devices, each running the full stage-per-kernel pipeline
// independently over its slice of the tasks.
type ShardReport struct {
	Shards int
	Tasks  int
	// PerShard holds each simulated device's full report, in shard order
	// (the merge order — shard i proves jobs i, i+S, i+2S, …).
	PerShard []*Report
	// TotalNs is the batch wall time: the slowest shard, since the
	// devices run concurrently.
	TotalNs float64
	// PeakDeviceBytes is the largest per-device memory high-water mark —
	// the budget every device must individually satisfy.
	PeakDeviceBytes int64
}

// ThroughputPerMs returns aggregate completed tasks per millisecond.
func (r *ShardReport) ThroughputPerMs() float64 {
	if r.TotalNs <= 0 {
		return 0
	}
	return float64(r.Tasks) / (r.TotalNs / 1e6)
}

// RunSharded splits one batch of tasks across shards identical simulated
// devices, round-robin in submission order (task k on device k mod S —
// the same deterministic scatter core.ShardedProver uses, so the
// simulated and real merge orders agree). Each device runs the full
// pipelined schedule over its slice under its own memory budget
// (spec.DeviceMemBytes is per device); a device whose working set
// exceeds that budget fails the whole run with ErrOutOfMemory, exactly
// as the single-device model does.
func RunSharded(spec DeviceSpec, stages []Stage, tasks, shards int, opts Options) (*ShardReport, error) {
	if shards < 1 {
		return nil, fmt.Errorf("gpusim: shard count %d < 1", shards)
	}
	if tasks < shards {
		return nil, fmt.Errorf("gpusim: %d tasks cannot occupy %d shards (need tasks ≥ shards)", tasks, shards)
	}
	out := &ShardReport{Shards: shards, Tasks: tasks, PerShard: make([]*Report, shards)}
	for i := 0; i < shards; i++ {
		n := tasks / shards
		if i < tasks%shards {
			n++
		}
		// Label each device's run so its simulated spans land on a
		// per-shard trace process instead of overlaying one timeline.
		o := opts
		o.Shard = i + 1
		rep, err := RunPipelined(spec, stages, n, o)
		if err != nil {
			telemetry.Error("gpusim", "shard.failed",
				telemetry.Shard(i), slog.Int("tasks", n), telemetry.Err(err))
			return nil, fmt.Errorf("gpusim: shard %d: %w", i, err)
		}
		out.PerShard[i] = rep
		if rep.TotalNs > out.TotalNs {
			out.TotalNs = rep.TotalNs
		}
		if rep.PeakDeviceBytes > out.PeakDeviceBytes {
			out.PeakDeviceBytes = rep.PeakDeviceBytes
		}
	}
	return out, nil
}
