package batchzk

import (
	"context"
	"net/http"
	"time"

	"batchzk/internal/telemetry"
)

// TelemetrySink bundles the metrics registry and span tracer that the
// instrumented layers (batch prover, pipelined modules, GPU simulator)
// record into. Dump(dir) writes metrics.json, trace.json (Chrome
// trace_event format — load in chrome://tracing or ui.perfetto.dev) and
// spans.jsonl.
type TelemetrySink = telemetry.Sink

// NewTelemetrySink builds a sink with the default span-ring capacity.
func NewTelemetrySink() *TelemetrySink { return telemetry.NewSink(0) }

// EnableTelemetry installs s as the process-wide sink: every prover run,
// pipelined module schedule, and simulated device run records into it
// until EnableTelemetry(nil) turns telemetry off again.
func EnableTelemetry(s *TelemetrySink) { telemetry.Enable(s) }

// ActiveTelemetry returns the process-wide sink, or nil when disabled.
func ActiveTelemetry() *TelemetrySink { return telemetry.Active() }

// ServeTelemetryDebug starts an HTTP debug server on addr exposing
// /debug/vars (expvar), /debug/pprof/..., /debug/telemetry (metrics
// snapshot), /debug/telemetry/trace and /debug/telemetry/spans. A nil
// sink follows the process-wide one. The server runs until the returned
// *http.Server is closed.
func ServeTelemetryDebug(addr string, s *TelemetrySink) (*http.Server, error) {
	return telemetry.ServeDebug(addr, s)
}

// TraceID identifies one proof job end to end on the flight recorder's
// timeline: minted at batch submit, carried through every pipeline
// stage and shard hand-off, and returned on the job's Result. The
// zero TraceID means "untraced".
type TraceID = telemetry.TraceID

// WithTraceID returns a context carrying id, for propagating a caller's
// job identity across API boundaries (the vml HTTP server reads it from
// the X-Trace-Id header into the request context).
func WithTraceID(ctx context.Context, id TraceID) context.Context {
	return telemetry.WithTraceID(ctx, id)
}

// TraceIDFrom extracts the trace id from ctx, or 0.
func TraceIDFrom(ctx context.Context) TraceID { return telemetry.TraceIDFrom(ctx) }

// JobTimeline is one job's recorded flight: submit, queue wait, per-stage
// spans, and emit (with the error of a failed job).
type JobTimeline = telemetry.JobTimeline

// SLOSummary aggregates the flight recorder's completed timelines into
// per-job service-level numbers: e2e latency percentiles, queue-wait
// p99, and per-stage cost attribution shares.
type SLOSummary = telemetry.SLOSummary

// FlightRecorder is the sink's per-job timeline store. Obtain one from
// a TelemetrySink via FlightRecorder(); all methods are nil-safe.
type FlightRecorder = telemetry.FlightRecorder

// MemSampler is a background runtime.ReadMemStats sampler with named
// phases and per-phase heap high-water marks, feeding mem/* gauges on
// the sink's registry (peaks surface on /metrics and expvar).
type MemSampler = telemetry.MemSampler

// StartMemSampler starts a memory sampler ticking every interval
// (0 = the 10ms default) into sink (nil = the process-wide sink).
func StartMemSampler(sink *TelemetrySink, interval time.Duration) *MemSampler {
	return telemetry.StartMemSampler(sink, interval)
}
