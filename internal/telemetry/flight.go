package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Job-level flight recorder.
//
// The span tracer answers "where did wall time go, per stage, across all
// jobs"; the flight recorder answers the orthogonal service question:
// "what happened to *this* job". Every proof job is minted a TraceID at
// submission and keeps it across stage hops, retries,
// shard assignment, and dead-letter quarantine, accumulating one
// JobTimeline: submit → queue wait → per-stage spans (with attempt
// counts) → (retries/quarantine) → emit. Timelines export as JSON
// (WriteJSON, Sink.Dump's timeline.json, /debug/telemetry/timeline) and
// the same TraceID is stamped on the tracer's spans, so a Chrome trace
// and a timeline cross-reference by id.
//
// Like the rest of the package, every method is safe for concurrent use
// and a no-op on a nil receiver, so instrumentation points never guard.

// TraceID identifies one job across its whole flight; 0 means "none".
// IDs are minted per recorder and unique within it.
type TraceID uint64

// traceIDKey carries a TraceID through a context.Context.
type traceIDKey struct{}

// WithTraceID returns a context carrying the given trace id, for service
// layers that propagate job identity across API boundaries.
func WithTraceID(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the trace id carried by ctx (0 when absent).
func TraceIDFrom(ctx context.Context) TraceID {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(traceIDKey{}).(TraceID)
	return id
}

// DefaultTimelineCap bounds how many job timelines a recorder retains.
const DefaultTimelineCap = 1 << 14

// StageTimeline is one stage's slice of a job timeline. Attempts counts
// every try including the successful (or terminally failed) one, so a
// stage that succeeded first time reports Attempts == 1.
type StageTimeline struct {
	Stage       string `json:"stage"`
	StartNs     int64  `json:"start_ns"`
	DurNs       int64  `json:"dur_ns"`
	QueueWaitNs int64  `json:"queue_wait_ns"`
	Attempts    int    `json:"attempts"`
}

// JobTimeline is the flight record of one job: every timestamp is in
// nanoseconds since the recorder's epoch (wall clock, monotonic-backed).
type JobTimeline struct {
	TraceID TraceID `json:"trace_id"`
	JobID   int     `json:"job_id"`
	// Shard is the prover shard the job was assigned to (-1 = unsharded).
	Shard    int   `json:"shard"`
	SubmitNs int64 `json:"submit_ns"`
	// StartNs stamps the first stage's dequeue; QueueWaitNs is the
	// admission wait StartNs − SubmitNs.
	StartNs     int64           `json:"start_ns"`
	EmitNs      int64           `json:"emit_ns"`
	QueueWaitNs int64           `json:"queue_wait_ns"`
	Stages      []StageTimeline `json:"stages"`
	// Retries counts retry waits taken across all stages (attempts − 1
	// summed over stages that retried) — recorded exactly once per retry.
	Retries         int    `json:"retries"`
	Quarantined     bool   `json:"quarantined,omitempty"`
	QuarantineStage string `json:"quarantine_stage,omitempty"`
	Error           string `json:"error,omitempty"`
	// Done marks the timeline complete (the job's result was emitted).
	Done bool `json:"done"`
}

// E2ENs returns the job's end-to-end latency (emit − submit), or 0 for
// an unfinished timeline.
func (t *JobTimeline) E2ENs() int64 {
	if !t.Done {
		return 0
	}
	return t.EmitNs - t.SubmitNs
}

// FlightRecorder accumulates job timelines keyed by trace id, bounded to
// a fixed number of jobs (oldest-submitted evicted first, counted in
// Dropped). All methods are nil-safe.
type FlightRecorder struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	jobs    map[TraceID]*JobTimeline
	order   []TraceID // submission order, drives eviction and export
	dropped int64
	cap     int
}

// NewFlightRecorder builds a recorder retaining at most capacity job
// timelines (0 = DefaultTimelineCap).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultTimelineCap
	}
	return &FlightRecorder{
		epoch: time.Now(),
		jobs:  map[TraceID]*JobTimeline{},
		cap:   capacity,
	}
}

// Mint returns a fresh nonzero trace id (0 on a nil recorder).
func (f *FlightRecorder) Mint() TraceID {
	if f == nil {
		return 0
	}
	return TraceID(f.nextID.Add(1))
}

// Now returns nanoseconds since the recorder's epoch (0 on nil).
func (f *FlightRecorder) Now() int64 {
	if f == nil {
		return 0
	}
	return time.Since(f.epoch).Nanoseconds()
}

// timeline returns the timeline for id, creating it if needed; the
// caller must hold f.mu.
func (f *FlightRecorder) timeline(id TraceID) *JobTimeline {
	if t := f.jobs[id]; t != nil {
		return t
	}
	t := &JobTimeline{TraceID: id, Shard: -1}
	if len(f.order) >= f.cap {
		evict := f.order[0]
		f.order = f.order[1:]
		delete(f.jobs, evict)
		f.dropped++
	}
	f.jobs[id] = t
	f.order = append(f.order, t.TraceID)
	return t
}

// Submit opens (or re-opens, for a sharded hand-off) the timeline for a
// job entering a prover: a zero id mints a fresh one, a nonzero id is
// propagated unchanged so one job keeps one timeline across layers. A
// shard ≥ 0 records the assignment; re-submission into a shard updates
// the shard without resetting the original submit stamp. Returns the
// effective trace id (the input id on a nil recorder).
func (f *FlightRecorder) Submit(id TraceID, jobID, shard int) TraceID {
	if f == nil {
		return id
	}
	if id == 0 {
		id = f.Mint()
	}
	now := f.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.timeline(id)
	if t.SubmitNs == 0 && len(t.Stages) == 0 {
		t.SubmitNs = now
		t.JobID = jobID
	}
	if shard >= 0 {
		t.Shard = shard
	}
	return id
}

// Stage records one completed stage of a job: its start/duration (ns
// since epoch), how long the job waited in the queue feeding the stage,
// and how many attempts the stage took. The first stage also stamps the
// job's StartNs and admission QueueWaitNs.
func (f *FlightRecorder) Stage(id TraceID, stage string, startNs, durNs, queueWaitNs int64, attempts int) {
	if f == nil || id == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.timeline(id)
	if len(t.Stages) == 0 {
		t.StartNs = startNs
		t.QueueWaitNs = startNs - t.SubmitNs
	}
	t.Stages = append(t.Stages, StageTimeline{
		Stage:       stage,
		StartNs:     startNs,
		DurNs:       durNs,
		QueueWaitNs: queueWaitNs,
		Attempts:    attempts,
	})
}

// Retry records one retry wait of a job at a stage. Call it exactly once
// per backoff taken — the per-stage attempt totals live in the Stage
// records; this counter is the cross-stage sum the SLO view reads.
func (f *FlightRecorder) Retry(id TraceID, stage string, attempt int) {
	if f == nil || id == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.timeline(id).Retries++
}

// Quarantine marks a job dead-lettered at a stage with its terminal
// error chain.
func (f *FlightRecorder) Quarantine(id TraceID, stage, errMsg string) {
	if f == nil || id == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.timeline(id)
	t.Quarantined = true
	t.QuarantineStage = stage
	t.Error = errMsg
}

// Emit closes a job's timeline when its result leaves the prover. errMsg
// is empty for a successful proof.
func (f *FlightRecorder) Emit(id TraceID, errMsg string) {
	if f == nil || id == 0 {
		return
	}
	now := f.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.timeline(id)
	t.EmitNs = now
	t.Done = true
	if errMsg != "" && t.Error == "" {
		t.Error = errMsg
	}
}

// Timelines returns copies of the recorded timelines in submission order
// (ties broken by trace id, so the order is deterministic). Nil-safe.
func (f *FlightRecorder) Timelines() []JobTimeline {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]JobTimeline, 0, len(f.order))
	for _, id := range f.order {
		if t := f.jobs[id]; t != nil {
			c := *t
			c.Stages = append([]StageTimeline(nil), t.Stages...)
			out = append(out, c)
		}
	}
	f.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SubmitNs != out[j].SubmitNs {
			return out[i].SubmitNs < out[j].SubmitNs
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// Timeline returns a copy of one job's timeline by trace id.
func (f *FlightRecorder) Timeline(id TraceID) (JobTimeline, bool) {
	if f == nil {
		return JobTimeline{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.jobs[id]
	if !ok {
		return JobTimeline{}, false
	}
	c := *t
	c.Stages = append([]StageTimeline(nil), t.Stages...)
	return c, true
}

// Dropped returns how many timelines were evicted by the capacity bound.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// timelineExport is the on-disk shape of a timeline dump.
type timelineExport struct {
	SchemaVersion int           `json:"schema_version"`
	Dropped       int64         `json:"dropped"`
	Jobs          []JobTimeline `json:"jobs"`
}

// TimelineSchemaVersion identifies the timeline.json layout.
const TimelineSchemaVersion = 1

// WriteJSON writes the recorded timelines as one indented JSON document,
// jobs in submission order — the per-job flight-recorder export. A nil
// recorder writes an empty document, so Dump never guards.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	exp := timelineExport{
		SchemaVersion: TimelineSchemaVersion,
		Dropped:       f.Dropped(),
		Jobs:          f.Timelines(),
	}
	if exp.Jobs == nil {
		exp.Jobs = []JobTimeline{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(exp)
}

// SLOSummary is the service-level view of a set of finished timelines:
// end-to-end latency percentiles and where the pipeline's busy time went
// (per-stage cost attribution shares).
type SLOSummary struct {
	Jobs        int     `json:"jobs"`
	Completed   int     `json:"completed"`
	Quarantined int     `json:"quarantined"`
	Retries     int     `json:"retries"`
	P50Ns       float64 `json:"p50_ns"`
	P90Ns       float64 `json:"p90_ns"`
	P99Ns       float64 `json:"p99_ns"`
	MaxNs       int64   `json:"max_ns"`
	// QueueWaitP99Ns is the p99 admission wait (submit → first dequeue).
	QueueWaitP99Ns float64 `json:"queue_wait_p99_ns"`
	// StageShares maps stage name → its fraction of total stage busy
	// time, summing to 1 over the recorded stages.
	StageShares map[string]float64 `json:"stage_shares"`
}

// SLO condenses the recorder's finished timelines into an SLOSummary.
// Latency percentiles are exact (computed from the sorted per-job
// latencies, nearest-rank), not histogram estimates. Nil-safe.
func (f *FlightRecorder) SLO() SLOSummary {
	s := SLOSummary{StageShares: map[string]float64{}}
	tls := f.Timelines()
	if len(tls) == 0 {
		return s
	}
	var lat, waits []int64
	stageNs := map[string]int64{}
	var totalStageNs int64
	for i := range tls {
		t := &tls[i]
		s.Jobs++
		if t.Quarantined {
			s.Quarantined++
		}
		s.Retries += t.Retries
		for _, st := range t.Stages {
			stageNs[st.Stage] += st.DurNs
			totalStageNs += st.DurNs
		}
		if !t.Done {
			continue
		}
		if !t.Quarantined && t.Error == "" {
			s.Completed++
		}
		lat = append(lat, t.E2ENs())
		waits = append(waits, t.QueueWaitNs)
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		rank := func(sorted []int64, q float64) float64 {
			i := int(q * float64(len(sorted)-1))
			return float64(sorted[i])
		}
		s.P50Ns = rank(lat, 0.50)
		s.P90Ns = rank(lat, 0.90)
		s.P99Ns = rank(lat, 0.99)
		s.MaxNs = lat[len(lat)-1]
		s.QueueWaitP99Ns = rank(waits, 0.99)
	}
	if totalStageNs > 0 {
		for name, ns := range stageNs {
			s.StageShares[name] = float64(ns) / float64(totalStageNs)
		}
	}
	return s
}
