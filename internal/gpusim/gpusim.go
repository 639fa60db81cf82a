// Package gpusim is the hardware substitution at the heart of this
// reproduction: a deterministic model of a CUDA-class device that the
// pipelined and naive ZKP modules are scheduled onto.
//
// The paper's claims are scheduling/occupancy arguments — a stage-per-
// kernel pipeline keeps threads busy while the intuitive one-kernel-per-
// proof approach idles them; dynamic loading bounds device memory;
// multi-stream overlap hides PCIe transfers. gpusim models exactly the
// quantities those arguments depend on:
//
//   - execution cores grouped into 32-thread SIMD warps, with kernel
//     core-shares allocated in warp granularity;
//   - per-operation costs in core-cycles (field multiply, SHA-256
//     compression, …) and a device-memory bandwidth roofline;
//   - a host↔device link with finite bandwidth, with and without
//     compute/transfer overlap (multi-stream);
//   - device-memory capacity accounting with peak tracking;
//   - a per-cycle core-utilization trace (the paper's Figure 9).
//
// Times are derived, never hard-coded: callers describe the real work
// counts of their algorithms (hash compressions per Merkle layer,
// multiply-adds per encoder stage, bytes touched per sum-check round) and
// the engine folds them with a device profile.
package gpusim

import (
	"errors"
	"fmt"
	"math"

	"batchzk/internal/telemetry"
)

// WarpSize is the SIMD width threads are scheduled in.
const WarpSize = 32

// DeviceSpec describes the hardware being modelled.
type DeviceSpec struct {
	Name            string
	Cores           int     // parallel execution lanes (CUDA cores / vCPUs)
	ClockGHz        float64 // core clock; cycles/ns per core
	MemBandwidthGBs float64 // device-memory bandwidth (roofline)
	LinkGBs         float64 // host↔device link (PCIe / C2C) bandwidth
	DeviceMemBytes  int64   // device-memory capacity
	KernelLaunchNs  float64 // fixed cost of launching one kernel
	SIMDWidth       int     // warp width; 1 disables warp-granularity effects (CPUs)
}

// Validate checks the spec for usability.
func (s DeviceSpec) Validate() error {
	if s.Cores <= 0 || s.ClockGHz <= 0 {
		return fmt.Errorf("gpusim: %s: cores/clock must be positive", s.Name)
	}
	if s.MemBandwidthGBs <= 0 || s.LinkGBs <= 0 {
		return fmt.Errorf("gpusim: %s: bandwidths must be positive", s.Name)
	}
	if s.DeviceMemBytes <= 0 {
		return fmt.Errorf("gpusim: %s: device memory must be positive", s.Name)
	}
	if s.SIMDWidth <= 0 {
		return fmt.Errorf("gpusim: %s: SIMD width must be positive", s.Name)
	}
	return nil
}

// opsPerNs is the device's peak op throughput for an op costing cycles.
func (s DeviceSpec) opsPerNs(cycles float64) float64 {
	return float64(s.Cores) * s.ClockGHz / cycles
}

// Stage is one step of a module's computation for a single task: the
// Merkle layer, sum-check round, or encoder level it corresponds to.
type Stage struct {
	Name string
	// WorkOps is the number of uniform operations the stage performs for
	// one task (hashes in a layer, multiply-adds in a matrix level, …).
	WorkOps float64
	// CyclesPerOp is the core-cycle cost of one operation.
	CyclesPerOp float64
	// ParallelOps bounds how many operations can run concurrently
	// (usually = WorkOps; lower for serial tails). Zero means WorkOps.
	ParallelOps float64
	// MemBytes is the device-memory traffic of the stage per task, for the
	// bandwidth roofline (0 = compute bound).
	MemBytes float64
	// HostBytesIn/Out are host↔device transfers attributable to the stage
	// per task (dynamic loading in, intermediate results out).
	HostBytesIn  float64
	HostBytesOut float64
	// WarpImbalance ≥ 1 inflates compute time for SIMD divergence (the
	// unsorted-row penalty of §3.3). Zero means 1.
	WarpImbalance float64
}

func (st *Stage) parallel() float64 {
	if st.ParallelOps > 0 {
		return st.ParallelOps
	}
	return st.WorkOps
}

func (st *Stage) imbalance() float64 {
	if st.WarpImbalance > 1 {
		return st.WarpImbalance
	}
	return 1
}

// totalWorkCycles is the stage's compute demand in core-cycles.
func (st *Stage) totalWorkCycles() float64 {
	return st.WorkOps * st.CyclesPerOp * st.imbalance()
}

// Report summarizes one simulated run.
type Report struct {
	Scheme string
	Tasks  int
	// Device / Cores identify the spec the run executed on, so a report
	// can be profiled without re-threading the spec through callers.
	Device string
	Cores  int

	// CycleNs is the steady-state pipeline cycle (pipelined runs only).
	CycleNs float64
	// LatencyNs is the start-to-finish time of a single task.
	LatencyNs float64
	// TotalNs is the wall time for all tasks.
	TotalNs float64
	// ComputeNsPerTask / TransferNsPerTask split the steady-state cost.
	ComputeNsPerTask  float64
	TransferNsPerTask float64
	// Overlapped reports whether transfers were hidden under compute.
	Overlapped bool
	// PeakDeviceBytes is the device-memory high-water mark.
	PeakDeviceBytes int64
	// Concurrency is the number of tasks in flight at steady state: the
	// pipeline depth (pipelined) or the kernel wave width K (naive).
	Concurrency int
	// Stages carries the per-stage accounting the profiler attributes
	// cycles from (one record per stage, in stage order).
	Stages []StageRecord
	// Utilization trace: fraction of device cores busy over time.
	Trace []UtilSample
}

// StageRecord is the per-stage accounting of one run: where the stage's
// allocated lanes spend their time for each task that occupies it. All
// times are per task; lane counts are per concurrently executing task.
type StageRecord struct {
	Name string `json:"name"`
	// ShareCores is the number of device lanes the stage's kernel owns
	// while a task occupies it (pipelined: its dedicated core share;
	// naive: the lanes one task's kernel uses during the round).
	ShareCores float64 `json:"share_cores"`
	// ComputeNs is the pure arithmetic time at the allocated lanes.
	ComputeNs float64 `json:"compute_ns"`
	// MemNs is the stage's time at the device-memory bandwidth roofline.
	MemNs float64 `json:"mem_ns"`
	// LaunchNs is kernel-launch overhead paid per task (naive rounds).
	LaunchNs float64 `json:"launch_ns"`
	// ActiveNs is the time the stage's lanes are occupied per task:
	// max(ComputeNs, MemNs) + LaunchNs.
	ActiveNs float64 `json:"active_ns"`
	// WarpOccupancy is the fraction of occupied lane-cycles doing useful
	// operations: SIMD divergence, warp-rounding waste and memory stalls
	// all lower it. In (0, 1].
	WarpOccupancy float64 `json:"warp_occupancy"`
}

// ThroughputPerMs returns completed tasks per millisecond.
func (r *Report) ThroughputPerMs() float64 {
	if r.TotalNs <= 0 {
		return 0
	}
	return float64(r.Tasks) / (r.TotalNs / 1e6)
}

// AmortizedNsPerTask returns wall time divided by task count.
func (r *Report) AmortizedNsPerTask() float64 {
	if r.Tasks == 0 {
		return 0
	}
	return r.TotalNs / float64(r.Tasks)
}

// UtilSample is one point of the core-utilization timeline.
type UtilSample struct {
	TimeNs float64
	Util   float64 // 0..1 fraction of cores busy
}

// ErrOutOfMemory is returned when a run's working set exceeds device memory.
var ErrOutOfMemory = errors.New("gpusim: device memory exceeded")

// Options tune a simulated run.
type Options struct {
	// Threads is the thread budget of the module (default: device cores).
	Threads int
	// Overlap enables multi-stream compute/transfer overlap (§3.1, §4).
	Overlap bool
	// TaskBytes is the device-resident working set per in-flight task, for
	// memory accounting; pipelined runs hold one task per stage, naive
	// runs hold every concurrent task's full input.
	TaskBytes int64
	// PreloadTasks is the number of tasks whose inputs are loaded into
	// device memory in advance (naive schemes load the whole batch — the
	// paper's m·N-blocks cost; the pipelined scheme loads one task per
	// cycle). Zero means only the concurrently executing tasks.
	PreloadTasks int
	// EqualShares gives every pipeline stage the same core share instead
	// of the paper's work-proportional allocation (§4) — the ablation
	// showing why manual resource allocation matters.
	EqualShares bool
	// TraceCap bounds the number of utilization samples recorded
	// (0 = default 512; negative disables the trace). When a run has
	// more sample points than the cap, the trace is stride-decimated —
	// every k-th point is kept across the whole run, so the drain at the
	// tail is represented — rather than truncated at the cap.
	TraceCap int
	// Telemetry, when set, records metrics (kernel launches, host↔device
	// bytes, per-stage times, peak memory) and simulated-clock spans for
	// the run into the given sink; when nil, the process-wide sink
	// installed via telemetry.Enable is used, if any.
	Telemetry *telemetry.Sink
	// Shard is the 1-based shard label of this run inside a sharded batch
	// (0 = unsharded). RunSharded sets it per device so each shard's
	// simulated spans land on their own trace process ("gpusim/shard<i>")
	// and the Chrome view shows the per-shard assignment instead of
	// overlaying every device on one timeline.
	Shard int
}

// spanLayer is the trace layer (Chrome trace process) runs record under.
func (o Options) spanLayer() string {
	if o.Shard > 0 {
		return fmt.Sprintf("gpusim/shard%d", o.Shard-1)
	}
	return "gpusim"
}

func (o Options) threads(spec DeviceSpec) int {
	if o.Threads > 0 {
		return o.Threads
	}
	return spec.Cores
}

// warpRound rounds a core share down to warp granularity, minimum one warp.
func warpRound(share float64, simd int) float64 {
	if simd <= 1 {
		if share < 1 {
			return 1
		}
		return share
	}
	w := math.Floor(share / float64(simd))
	if w < 1 {
		w = 1
	}
	return w * float64(simd)
}

// RunPipelined simulates the paper's stage-per-kernel pipeline: each stage
// is a dedicated kernel whose core share is proportional to its work, and
// one task enters per cycle. The cycle time is set by the slowest stage
// (compute or bandwidth bound), and transfers overlap with compute when
// Options.Overlap is set.
func RunPipelined(spec DeviceSpec, stages []Stage, tasks int, opts Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(stages) == 0 || tasks <= 0 {
		return nil, fmt.Errorf("gpusim: need at least one stage and one task")
	}
	threads := opts.threads(spec)
	cores := float64(min(threads, spec.Cores))

	// Allocate core shares proportional to per-stage work, in warp quanta.
	totalCycles := 0.0
	for i := range stages {
		totalCycles += stages[i].totalWorkCycles()
	}
	if totalCycles <= 0 {
		return nil, fmt.Errorf("gpusim: stages carry no work")
	}
	stageNs := make([]float64, len(stages))
	stageShare := make([]float64, len(stages)) // core lanes owned per stage
	records := make([]StageRecord, len(stages))
	var transferBytes float64
	cycleNs := 0.0
	for i := range stages {
		st := &stages[i]
		proportion := st.totalWorkCycles() / totalCycles
		if opts.EqualShares {
			proportion = 1 / float64(len(stages))
		}
		share := warpRound(cores*proportion, spec.SIMDWidth)
		if p := st.parallel(); share > p {
			share = p // cannot use more lanes than independent ops
		}
		stageShare[i] = share
		computeNs := st.totalWorkCycles() / (share * spec.ClockGHz)
		memNs := st.MemBytes / spec.MemBandwidthGBs // GB/s == bytes/ns
		stageNs[i] = math.Max(computeNs, memNs)
		if stageNs[i] > cycleNs {
			cycleNs = stageNs[i]
		}
		transferBytes += st.HostBytesIn + st.HostBytesOut
		records[i] = StageRecord{
			Name:          st.Name,
			ShareCores:    share,
			ComputeNs:     computeNs,
			MemNs:         memNs,
			ActiveNs:      stageNs[i],
			WarpOccupancy: warpOccupancy(st, share, spec.ClockGHz, stageNs[i]),
		}
	}
	transferNs := transferBytes / spec.LinkGBs

	effCycle := cycleNs + transferNs
	if opts.Overlap {
		effCycle = math.Max(cycleNs, transferNs)
	}

	// Device memory: the pipeline holds one task's data per stage.
	peak := opts.TaskBytes // per in-flight task × stages, approximated by
	// the caller via TaskBytes covering the whole in-flight footprint.
	if peak > spec.DeviceMemBytes {
		return nil, fmt.Errorf("%w: pipeline working set %d > %d", ErrOutOfMemory, peak, spec.DeviceMemBytes)
	}

	depth := float64(len(stages))
	rep := &Report{
		Scheme:            "pipelined",
		Tasks:             tasks,
		Device:            spec.Name,
		Cores:             spec.Cores,
		CycleNs:           effCycle,
		LatencyNs:         depth * effCycle,
		TotalNs:           (float64(tasks) + depth - 1) * effCycle,
		ComputeNsPerTask:  cycleNs,
		TransferNsPerTask: transferNs,
		Overlapped:        opts.Overlap,
		PeakDeviceBytes:   peak,
		Concurrency:       len(stages),
		Stages:            records,
	}

	// Utilization trace: ramp-up as the pipeline fills, full-occupancy
	// plateau, drain at the end. Stage i's kernel keeps its core share
	// busy whenever a task occupies it — occupancy semantics, matching
	// how GPU utilization is measured (a memory-stalled resident kernel
	// still counts as busy), which is what the paper's Figure 9 plots.
	// Runs longer than the cap are stride-decimated, never truncated.
	if cap := traceCap(opts); cap > 0 {
		totalCyclesCount := tasks + len(stages) - 1
		stride := maxInt(1, (totalCyclesCount+cap-1)/cap)
		stageUtil := make([]float64, len(stages))
		for i := range stages {
			stageUtil[i] = stageShare[i] / float64(spec.Cores)
		}
		for cyc := 0; cyc < totalCyclesCount; cyc += stride {
			u := 0.0
			for i := range stages {
				// Stage i holds task (cyc - i) if that task exists.
				taskID := cyc - i
				if taskID >= 0 && taskID < tasks {
					u += stageUtil[i]
				}
			}
			rep.Trace = append(rep.Trace, UtilSample{TimeNs: float64(cyc) * effCycle, Util: math.Min(u, 1)})
		}
	}
	if tel := telemetry.Resolve(opts.Telemetry); tel != nil {
		emitPipelinedTelemetry(tel, opts.spanLayer(), stages, stageNs, effCycle, transferNs, tasks, rep)
	}
	return rep, nil
}

// RunNaive simulates the intuitive approach the paper contrasts against
// (Figure 4a): one kernel per task holding ThreadsPerTask threads for the
// task's entire life, processing the stages as barrier-separated rounds
// (with a kernel launch per round). Tasks run in waves of
// K = threads / threadsPerTask concurrent kernels.
func RunNaive(spec DeviceSpec, stages []Stage, tasks, threadsPerTask int, opts Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(stages) == 0 || tasks <= 0 || threadsPerTask <= 0 {
		return nil, fmt.Errorf("gpusim: need stages, tasks and a positive thread reservation")
	}
	threads := opts.threads(spec)
	cores := float64(min(threads, spec.Cores))

	// Concurrent kernels: each reserves threadsPerTask lanes.
	k := maxInt(1, int(cores)/threadsPerTask)
	if k > tasks {
		k = tasks
	}
	perTaskCores := math.Min(float64(threadsPerTask), cores/float64(k))

	// Device memory: every concurrent task holds its full input resident,
	// plus any pre-loaded inputs (the m·N-blocks cost of the paper's
	// intuitive approach). Preloading degrades gracefully to whatever
	// fits; the concurrently executing tasks themselves must fit.
	if opts.TaskBytes > 0 && opts.TaskBytes*int64(k) > spec.DeviceMemBytes {
		return nil, fmt.Errorf("%w: %d concurrent tasks need %d > %d",
			ErrOutOfMemory, k, opts.TaskBytes*int64(k), spec.DeviceMemBytes)
	}
	resident := k
	if opts.PreloadTasks > resident {
		resident = opts.PreloadTasks
	}
	if resident > tasks {
		resident = tasks
	}
	if opts.TaskBytes > 0 {
		if fit := int(spec.DeviceMemBytes / opts.TaskBytes); resident > fit {
			resident = fit
		}
	}
	peak := opts.TaskBytes * int64(resident)

	// Per-task latency: barrier rounds.
	latency := 0.0
	roundNs := make([]float64, len(stages))
	roundBusy := make([]float64, len(stages)) // busy lanes during the round
	records := make([]StageRecord, len(stages))
	var transferBytes float64
	for i := range stages {
		st := &stages[i]
		lanes := math.Min(perTaskCores, st.parallel())
		computeNs := st.totalWorkCycles() / (lanes * spec.ClockGHz)
		memNs := st.MemBytes / spec.MemBandwidthGBs
		roundNs[i] = math.Max(computeNs, memNs) + spec.KernelLaunchNs
		roundBusy[i] = lanes
		latency += roundNs[i]
		transferBytes += st.HostBytesIn + st.HostBytesOut
		records[i] = StageRecord{
			Name:          st.Name,
			ShareCores:    lanes,
			ComputeNs:     computeNs,
			MemNs:         memNs,
			LaunchNs:      spec.KernelLaunchNs,
			ActiveNs:      roundNs[i],
			WarpOccupancy: warpOccupancy(st, lanes, spec.ClockGHz, roundNs[i]-spec.KernelLaunchNs),
		}
	}
	// No multi-stream in the naive scheme: transfers serialize per task.
	transferNs := transferBytes / spec.LinkGBs
	latency += transferNs

	waves := (tasks + k - 1) / k
	rep := &Report{
		Scheme:            "naive",
		Tasks:             tasks,
		Device:            spec.Name,
		Cores:             spec.Cores,
		LatencyNs:         latency,
		TotalNs:           float64(waves) * latency,
		ComputeNsPerTask:  latency - transferNs,
		TransferNsPerTask: transferNs,
		PeakDeviceBytes:   peak,
		Concurrency:       k,
		Stages:            records,
	}

	if cap := traceCap(opts); cap > 0 {
		// One wave's utilization profile, repeated: during round i the k
		// concurrent kernels keep k·roundBusy[i] lanes active. When the
		// run has more rounds than the cap, every stride-th round is
		// sampled uniformly across *all* waves — the tail of the run is
		// decimated like the head, never cut off at the cap.
		totalRounds := waves * len(stages)
		stride := maxInt(1, (totalRounds+cap-1)/cap)
		t := 0.0
		round := 0
		for w := 0; w < waves; w++ {
			for i := 0; i < len(stages); i++ {
				if round%stride == 0 {
					u := float64(k) * roundBusy[i] / float64(spec.Cores)
					rep.Trace = append(rep.Trace, UtilSample{TimeNs: t, Util: math.Min(u, 1)})
				}
				t += roundNs[i]
				round++
			}
			t += transferNs
		}
	}
	if tel := telemetry.Resolve(opts.Telemetry); tel != nil {
		emitNaiveTelemetry(tel, opts.spanLayer(), stages, roundNs, transferNs, tasks, waves, rep)
	}
	return rep, nil
}

// warpOccupancy is the fraction of a stage's occupied lane-cycles spent
// on useful operations: share·clock·activeNs lane-cycles are held while
// only WorkOps·CyclesPerOp are needed, so SIMD divergence (WarpImbalance),
// warp-granularity rounding and memory stalls all push it below 1.
func warpOccupancy(st *Stage, share, clockGHz, activeNs float64) float64 {
	if share <= 0 || activeNs <= 0 {
		return 1
	}
	useful := st.WorkOps * st.CyclesPerOp
	held := share * clockGHz * activeNs
	if held <= 0 || useful >= held {
		return 1
	}
	return useful / held
}

func traceCap(o Options) int {
	switch {
	case o.TraceCap < 0:
		return 0
	case o.TraceCap == 0:
		return 512
	default:
		return o.TraceCap
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
