package batchzk

import (
	"context"
	"net/http"

	"batchzk/internal/telemetry"
)

// TelemetrySink is the one observation layer the instrumented layers
// (batch prover, gateway, pipelined modules, GPU simulator, vml service)
// record into: the metrics registry, the span tracer, the per-job flight
// recorder and the structured JSON event log. Dump(dir) writes
// metrics.json, trace.json (Chrome trace_event format — load in
// chrome://tracing or ui.perfetto.dev), spans.jsonl and timeline.json.
type TelemetrySink = telemetry.Sink

// TelemetryConfig assembles a sink: the event log's destination and
// level, and the clock. The zero value logs nothing and uses the wall
// clock.
type TelemetryConfig = telemetry.Config

// NewTelemetrySink builds a sink from cfg.
func NewTelemetrySink(cfg TelemetryConfig) *TelemetrySink { return telemetry.NewSink(cfg) }

// EnableTelemetry installs s as the process-wide sink: every prover run,
// gateway, pipelined module schedule, and simulated device run records
// into it until EnableTelemetry(nil) turns telemetry off again.
func EnableTelemetry(s *TelemetrySink) { telemetry.Enable(s) }

// ActiveTelemetry returns the process-wide sink, or nil when disabled.
func ActiveTelemetry() *TelemetrySink { return telemetry.Active() }

// ServeTelemetryDebug starts an HTTP debug server on addr exposing
// /metrics, /debug/vars (expvar), /debug/pprof/..., /debug/telemetry
// (metrics snapshot), /debug/telemetry/{trace,spans,timeline} and
// /healthz. A nil sink follows the process-wide one.
// The server runs until the returned *http.Server is closed.
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

// FlightRecorder is the sink's per-job timeline store. Obtain one from
// a TelemetrySink via FlightRecorder(); all methods are nil-safe.
type FlightRecorder = telemetry.FlightRecorder
