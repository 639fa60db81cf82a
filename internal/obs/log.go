package obs

import (
	"context"
	"io"
	"log/slog"

	"batchzk/internal/telemetry"
)

// Structured event log.
//
// Every operationally significant event in the system — a retry, a
// quarantine, a launch fault, an alert — is
// emitted as one JSON object on a stable schema, built on stdlib
// log/slog. The schema contract (kept stable by CI's obs-smoke jq
// check) is: every record has "time", "level", "msg" (the event name,
// dot-namespaced like "job.quarantined"), and "component" (the layer
// that emitted it: core, gpusim, vml, obs). Everything else is
// typed attributes; the helpers below fix the attribute names the rest
// of the codebase uses, so "trace_id" is always "trace_id".

// Log schema attribute helpers.

// Trace stamps a job's flight-recorder trace id on an event, keying the
// log line to /debug/telemetry/timeline and the Chrome trace.
func Trace(id telemetry.TraceID) slog.Attr { return slog.Uint64("trace_id", uint64(id)) }

// Job stamps the caller-assigned job id.
func Job(id int) slog.Attr { return slog.Int("job_id", id) }

// Stage names the pipeline stage an event happened in.
func Stage(name string) slog.Attr { return slog.String("stage", name) }

// Shard names the prover shard (-1 = unsharded).
func Shard(i int) slog.Attr { return slog.Int("shard", i) }

// Attempt records which try of a retried operation this was (1-based).
func Attempt(n int) slog.Attr { return slog.Int("attempt", n) }

// Err records an error chain as a string attribute ("error"); a nil
// error renders as the empty string.
func Err(err error) slog.Attr {
	if err == nil {
		return slog.String("error", "")
	}
	return slog.String("error", err.Error())
}

// newLogger builds the engine's slog JSON logger. A nil output keeps
// events off entirely (the engine's metrics/SLO machinery still runs).
func newLogger(out io.Writer, level slog.Leveler) *slog.Logger {
	if out == nil {
		return nil
	}
	if level == nil {
		level = slog.LevelInfo
	}
	return slog.New(slog.NewJSONHandler(out, &slog.HandlerOptions{Level: level}))
}

// Event emits one structured event: level, the emitting component, the
// dot-namespaced event name (the record's msg), and attributes. Nil-safe
// on a nil engine and on an engine with logging disabled, so call sites
// never guard.
func (e *Engine) Event(level slog.Level, component, event string, attrs ...slog.Attr) {
	if e == nil || e.log == nil {
		return
	}
	ctx := context.Background()
	if !e.log.Enabled(ctx, level) {
		return
	}
	args := make([]any, 0, len(attrs)+1)
	args = append(args, slog.String("component", component))
	for _, a := range attrs {
		args = append(args, a)
	}
	e.log.Log(ctx, level, event, args...)
}

// Package-level event helpers on the process-wide engine, for
// instrumentation points that do not hold an explicit engine.

// Info logs an info-level event on the active engine.
func Info(component, event string, attrs ...slog.Attr) {
	Active().Event(slog.LevelInfo, component, event, attrs...)
}

// Warn logs a warning-level event on the active engine.
func Warn(component, event string, attrs ...slog.Attr) {
	Active().Event(slog.LevelWarn, component, event, attrs...)
}

// Error logs an error-level event on the active engine.
func Error(component, event string, attrs ...slog.Attr) {
	Active().Event(slog.LevelError, component, event, attrs...)
}

// Debug logs a debug-level event on the active engine.
func Debug(component, event string, attrs ...slog.Attr) {
	Active().Event(slog.LevelDebug, component, event, attrs...)
}
