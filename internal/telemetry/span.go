package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSpanCap is the tracer ring-buffer capacity when none is given.
const DefaultSpanCap = 1 << 16

// SpanID identifies one recorded span; 0 means "no span" / "no parent".
type SpanID uint64

// Span is one completed timed region. Two clock domains coexist:
//
//   - wall spans (Begin/End) measure elapsed time on the tracer's clock
//     (the sink's clock; time.Now for a standalone tracer), with StartNs
//     relative to the tracer's epoch;
//   - simulated spans (Add) carry model-derived timestamps, e.g.
//     gpusim's kernel occupancy windows.
//
// The Chrome export separates the domains into distinct trace processes
// so their timelines are not visually conflated.
type Span struct {
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	Layer  string  `json:"layer"`          // "core", "gpusim"
	Name   string  `json:"name"`           // e.g. "stage/commit", "kernel/merkle/leaves"
	TID    int     `json:"tid"`            // logical track (stage index, stream id)
	Start  float64 `json:"start_ns"`       // ns since epoch (wall) or simulated ns
	Dur    float64 `json:"dur_ns"`         // duration in ns
	Sim    bool    `json:"sim,omitempty"`  // simulated-clock span
	Task   int     `json:"task,omitempty"` // job/task id when meaningful (-1 = none)
	// Trace links the span to a job's flight-recorder timeline (0 = none).
	Trace TraceID `json:"trace,omitempty"`
}

// End returns the span's end timestamp in its clock domain.
func (s Span) End() float64 { return s.Start + s.Dur }

// Tracer records spans into a bounded ring buffer. When the buffer is
// full the oldest spans are overwritten, so the tail of a long run is
// always represented. All methods are safe for concurrent use and no-ops
// on a nil receiver.
type Tracer struct {
	now    func() time.Time
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	ring  []Span
	next  int   // ring write position
	total int64 // spans ever recorded
}

// NewTracer builds a tracer holding at most capacity spans
// (0 = DefaultSpanCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Tracer{now: time.Now, epoch: time.Now(), ring: make([]Span, 0, capacity)}
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
}

// ActiveSpan is an in-progress wall-clock span returned by Begin; call
// End to record it. Nil-safe throughout.
type ActiveSpan struct {
	t     *Tracer
	span  Span
	start time.Time
}

// ID returns the span's id (0 on nil), usable as a Parent link.
func (a *ActiveSpan) ID() SpanID {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// SetTrace stamps the job trace id the span belongs to; call between
// Begin and End. Nil-safe.
func (a *ActiveSpan) SetTrace(id TraceID) {
	if a == nil {
		return
	}
	a.span.Trace = id
}

// End records the span with its measured wall duration and returns that
// duration in ns (0 on nil), so a caller can hand the same measurement
// on to the sink's other recorders.
func (a *ActiveSpan) End() int64 {
	if a == nil {
		return 0
	}
	ns := a.t.now().Sub(a.start).Nanoseconds()
	a.span.Dur = float64(ns)
	a.t.record(a.span)
	return ns
}

// Begin opens a wall-clock span. task is the job/task id (-1 = none).
// Returns nil on a nil tracer.
func (t *Tracer) Begin(layer, name string, parent SpanID, tid, task int) *ActiveSpan {
	if t == nil {
		return nil
	}
	now := t.now()
	return &ActiveSpan{
		t:     t,
		start: now,
		span: Span{
			ID:     SpanID(t.nextID.Add(1)),
			Parent: parent,
			Layer:  layer,
			Name:   name,
			TID:    tid,
			Task:   task,
			Start:  float64(now.Sub(t.epoch).Nanoseconds()),
		},
	}
}

// Add records a completed simulated-clock span (model-derived
// timestamps, e.g. gpusim occupancy windows) and returns its id for
// parent links. No-op on a nil tracer (returns 0).
func (t *Tracer) Add(layer, name string, parent SpanID, tid, task int, startNs, durNs float64) SpanID {
	if t == nil {
		return 0
	}
	id := SpanID(t.nextID.Add(1))
	t.record(Span{
		ID:     id,
		Parent: parent,
		Layer:  layer,
		Name:   name,
		TID:    tid,
		Task:   task,
		Start:  startNs,
		Dur:    durNs,
		Sim:    true,
	})
	return id
}

// Spans returns the recorded spans, oldest first. Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) && t.next != 0 {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
		return out
	}
	return append(out, t.ring...)
}

// Dropped returns how many spans were overwritten by ring wraparound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - int64(len(t.ring))
}
