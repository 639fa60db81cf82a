// Package telemetry is the one observation layer of the reproduction.
// A Sink holds everything a run records:
//
//   - a concurrency-safe metrics registry (counters, gauges, log-bucketed
//     latency histograms) with Prometheus, expvar and JSON export;
//   - a span tracer with a bounded ring buffer and Chrome trace_event
//     export;
//   - a job flight recorder: one timeline per job, keyed by TraceID;
//   - a structured JSON event log (log/slog) on a fixed schema.
//
// One clock (Config.Now) stamps the tracer and the flight recorder, and
// one debug handler (DebugHandler) serves every surface: /metrics,
// /debug/vars, /debug/pprof, /debug/telemetry/... and /healthz. The
// sink does not judge what it records: readiness belongs to what can
// act on it (the gateway answers its own /readyz from its admission
// queue).
//
// The paper's central claim is an occupancy argument — pipelining keeps
// the device busy (Figure 9) — and arguments of that kind are only
// checkable with per-stage visibility. The execution layers record here:
//
//   - internal/core's BatchProver records each stage and each finished
//     job through one sink call (StageDone, JobDone), which updates the
//     stage and job series, the flight timeline and the event log
//     together, plus one span per stage per job;
//   - internal/sched's Graph records per-stage queue waits and panics;
//   - internal/gpusim emits simulated-clock spans for kernel occupancy
//     and host↔device transfers (layer "gpusim"), so a single export
//     visually reproduces the pipelined-vs-naive contrast of Figure 9
//     in chrome://tracing or Perfetto.
//
// Telemetry is disabled by default and costs a nil check per
// instrumentation point. Enable it process-wide with Enable, or hand an
// explicit *Sink to the layers that accept one (gpusim.Options.Telemetry,
// BatchProver.SetTelemetry). All types are safe for concurrent use, and
// every recording method is a no-op on a nil receiver, so call sites
// never guard.
package telemetry

import (
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// Config assembles a Sink. The zero value is usable: logging off, the
// wall clock.
type Config struct {
	// LogOutput receives the JSON event log; nil disables logging (the
	// metrics, spans and flight timelines still record).
	LogOutput io.Writer
	// LogLevel is the minimum emitted level (default Info).
	LogLevel slog.Leveler
	// Now is the sink's clock (default time.Now): the tracer epoch and
	// the flight recorder's stamps both read it.
	Now func() time.Time
}

// Sink bundles the recording surfaces one run writes into: the metrics
// registry, the span tracer, the job flight recorder and the event log.
// Build one with NewSink.
type Sink struct {
	Metrics *Registry
	Tracer  *Tracer
	Flight  *FlightRecorder

	now   func() time.Time
	log   *slog.Logger
	start time.Time

	// jobs holds the job series JobStarted and JobDone maintain, nil
	// until the first job event.
	jobs atomic.Pointer[jobSeries]
}

// NewSink builds a sink from cfg (zero Config = defaults) with a fresh
// registry, a tracer and a flight recorder of default capacity, all on
// the config's clock.
func NewSink(cfg Config) *Sink {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Sink{
		Metrics: NewRegistry(),
		Tracer:  NewTracer(0),
		Flight:  NewFlightRecorder(0),
		now:     cfg.Now,
		log:     newLogger(cfg.LogOutput, cfg.LogLevel),
		start:   cfg.Now(),
	}
	s.Tracer.now, s.Tracer.epoch = cfg.Now, s.start
	s.Flight.now, s.Flight.epoch = cfg.Now, s.start
	return s
}

// global is the process-wide default sink; nil means disabled.
var global atomic.Pointer[Sink]

// Enable installs s as the process-wide default sink picked up by every
// instrumented layer that was not handed an explicit sink. Enable(nil)
// disables global telemetry again.
func Enable(s *Sink) { global.Store(s) }

// Active returns the process-wide sink, or nil when telemetry is off.
func Active() *Sink { return global.Load() }

// Resolve returns the explicit sink when non-nil, else the global one.
func Resolve(explicit *Sink) *Sink {
	if explicit != nil {
		return explicit
	}
	return Active()
}

// Counter returns the named counter from the sink's registry (nil-safe).
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.Metrics.Counter(name)
}

// Gauge returns the named gauge from the sink's registry (nil-safe).
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.Metrics.Gauge(name)
}

// Histogram returns the named histogram from the sink's registry
// (nil-safe).
func (s *Sink) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.Metrics.Histogram(name)
}

// Trace returns the sink's tracer (nil when the sink is nil).
func (s *Sink) Trace() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// FlightRecorder returns the sink's job flight recorder (nil when the
// sink is nil), whose methods are themselves nil-safe.
func (s *Sink) FlightRecorder() *FlightRecorder {
	if s == nil {
		return nil
	}
	return s.Flight
}

// jobSeries are the prover's job series. They are registered by the
// first job event, so a sink that never sees a job (a simulator run)
// exports none of them.
type jobSeries struct {
	completed, failed, timeouts *Counter
	inFlight                    *Gauge
	e2e                         *Histogram
}

// jobSeries returns the sink's job series, registering them on first
// use. Racing first callers build equal values: the registry hands every
// caller the one instrument of a name.
func (s *Sink) jobSeries() *jobSeries {
	if js := s.jobs.Load(); js != nil {
		return js
	}
	js := &jobSeries{
		completed: s.Metrics.Counter("core/jobs/completed"),
		failed:    s.Metrics.Counter("core/jobs/failed"),
		timeouts:  s.Metrics.Counter("core/jobs/timeouts"),
		inFlight:  s.Metrics.Gauge("core/jobs/in_flight"),
		e2e:       s.Metrics.Histogram("core/job/e2e_ns"),
	}
	s.jobs.Store(js)
	return js
}

// JobStarted counts a job into the in-flight gauge as its first stage
// takes it. Nil-safe.
func (s *Sink) JobStarted() {
	if s == nil {
		return
	}
	s.jobSeries().inFlight.Add(1)
}

// StageDone records one completed stage execution of job trace, durNs
// long and ending now: the stage's latency histogram and the job's
// flight timeline. Nil-safe.
func (s *Sink) StageDone(trace TraceID, stage string, durNs int64) {
	if s == nil {
		return
	}
	s.Metrics.Histogram("core/stage/" + stage + "/ns").Observe(durNs)
	end := s.now().Sub(s.start).Nanoseconds() // the flight recorder's epoch is s.start
	s.Flight.Stage(trace, stage, end-durNs, durNs)
}

// JobEnd is one finished job as JobDone records it.
type JobEnd struct {
	Trace TraceID
	ID    int
	// Shard is the prover shard, -1 for an unsharded prover.
	Shard int
	// E2ENs is the time from the job's first stage taking it to its
	// emission.
	E2ENs int64
	// Err is the job's failure, nil when it completed; Stage names the
	// stage it failed at, and TimedOut marks a job its deadline cut off.
	Err      error
	Stage    string
	TimedOut bool
}

// JobDone records one finished job: the completed, failed and timeout
// counters, the end-to-end histogram, the in-flight gauge, the flight
// timeline's close, and a job.completed (debug) or job.failed (error)
// event. Nil-safe.
func (s *Sink) JobDone(j JobEnd) {
	if s == nil {
		return
	}
	js := s.jobSeries()
	if j.Err != nil {
		js.failed.Inc()
		if j.TimedOut {
			js.timeouts.Inc()
		}
		s.Flight.Emit(j.Trace, j.Err.Error())
		s.Event(slog.LevelError, "core", "job.failed",
			Job(j.ID), Trace(j.Trace), Stage(j.Stage), Shard(j.Shard), Err(j.Err))
	} else {
		js.completed.Inc()
		s.Flight.Emit(j.Trace, "")
		s.Event(slog.LevelDebug, "core", "job.completed", Job(j.ID), Trace(j.Trace), Shard(j.Shard))
	}
	js.e2e.Observe(j.E2ENs)
	js.inFlight.Add(-1)
}

// Uptime returns how long the sink has been alive on its clock.
// Nil-safe.
func (s *Sink) Uptime() time.Duration {
	if s == nil {
		return 0
	}
	return s.now().Sub(s.start)
}
