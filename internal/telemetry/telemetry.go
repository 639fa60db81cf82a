// Package telemetry is the one observation layer of the reproduction.
// A Sink holds everything a run records and judges:
//
//   - a concurrency-safe metrics registry (counters, gauges, log-bucketed
//     latency histograms) with Prometheus, expvar and JSON export;
//   - a span tracer with a bounded ring buffer and Chrome trace_event
//     export;
//   - a job flight recorder: one timeline per job, keyed by TraceID;
//   - the health engine: SLO objectives over sliding windows with
//     multi-window burn rates, an anomaly sentinel raising hysteretic
//     alerts, readiness, and a structured JSON event log (log/slog).
//
// One clock (Config.Now) stamps the tracer, the flight recorder and the
// health windows, and one debug handler (DebugHandler) serves every
// surface: /metrics, /debug/vars, /debug/pprof, /debug/telemetry/...,
// /healthz, /readyz and /debug/obs/slo.
//
// The paper's central claim is an occupancy argument — pipelining keeps
// the device busy (Figure 9) — and arguments of that kind are only
// checkable with per-stage visibility. The execution layers record here:
//
//   - internal/core's BatchProver records each stage and each finished
//     job through one sink call (StageDone, JobDone), which updates the
//     stage and job series, the health windows, the flight timeline and
//     the event log together, plus one span per stage per job;
//   - internal/sched's executors record per-stage queue waits, panics and
//     cycle counts;
//   - internal/pipeline's module schedules emit one span per
//     (cycle, stage) slot (layer "pipeline");
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
	"sync"
	"sync/atomic"
	"time"
)

// Config assembles a Sink. The zero value is usable: logging off,
// default objectives, default windows and sentinel thresholds, the wall
// clock.
type Config struct {
	// LogOutput receives the JSON event log; nil disables logging (the
	// SLO engine and sentinel still run).
	LogOutput io.Writer
	// LogLevel is the minimum emitted level (default Info).
	LogLevel slog.Leveler
	// Objectives are the SLOs to track (nil = DefaultObjectives).
	Objectives []Objective
	// FastWindow and SlowWindow are the burn-rate evaluation windows
	// (defaults 10s and 60s). The fast window catches cliffs, the slow
	// window confirms they are not blips.
	FastWindow time.Duration
	SlowWindow time.Duration
	// BurnThreshold pages when both windows burn at or above it
	// (default 2: spending budget at twice the sustainable rate).
	BurnThreshold float64
	// QuarantineStormFrac flips readiness when the failed fraction of
	// jobs in the fast window reaches it (default 0.25).
	QuarantineStormFrac float64
	// MinJudgeSamples is the fewest fast-window samples before storm,
	// burn, or shard judgments fire (default 8) — one bad job in an
	// empty window is not a storm.
	MinJudgeSamples int
	// ShardFailFactor and ShardFailMargin raise a shard alert when a
	// shard's fast-window failure rate exceeds
	// fleet×ShardFailFactor + ShardFailMargin (defaults 2 and 0.1).
	ShardFailFactor float64
	ShardFailMargin float64
	// Sentinel tunes the anomaly sentinel (zero = defaults).
	Sentinel SentinelConfig
	// Now is the sink's clock (default time.Now): the tracer epoch, the
	// flight recorder's stamps and the health windows all read it.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Objectives == nil {
		c.Objectives = DefaultObjectives()
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 10 * time.Second
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Minute
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 2
	}
	if c.QuarantineStormFrac <= 0 || c.QuarantineStormFrac > 1 {
		c.QuarantineStormFrac = 0.25
	}
	if c.MinJudgeSamples < 1 {
		c.MinJudgeSamples = 8
	}
	if c.ShardFailFactor <= 0 {
		c.ShardFailFactor = 2
	}
	if c.ShardFailMargin <= 0 {
		c.ShardFailMargin = 0.1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Sink bundles the recording surfaces one run writes into — the metrics
// registry, the span tracer, the job flight recorder — and the health
// engine that judges them. Build one with NewSink.
type Sink struct {
	Metrics *Registry
	Tracer  *Tracer
	Flight  *FlightRecorder

	cfg   Config
	log   *slog.Logger
	start time.Time

	// jobs holds the job series JobStarted and JobDone maintain, nil
	// until the first job event; the health snapshot reads its job
	// counters back from them, so a job is counted in exactly one place.
	jobs atomic.Pointer[jobSeries]

	mu         sync.Mutex
	objectives []*objectiveState
	stages     map[string]*stageTrack
	stageOrder []string
	shards     map[int]*sampleWindow
	fleet      *sampleWindow // all jobs, bad = failed (storm and shard comparison base)

	sentinel *Sentinel
}

// NewSink builds a sink from cfg (zero Config = defaults) with a fresh
// registry, a tracer and a flight recorder of default capacity, all on
// the config's clock. Objectives are validated; an invalid objective is
// dropped with an error event rather than failing construction, so a
// misconfigured target can never take observability down with it.
func NewSink(cfg Config) *Sink {
	cfg = cfg.withDefaults()
	s := &Sink{
		Metrics:  NewRegistry(),
		Tracer:   NewTracer(0),
		Flight:   NewFlightRecorder(0),
		cfg:      cfg,
		log:      newLogger(cfg.LogOutput, cfg.LogLevel),
		start:    cfg.Now(),
		stages:   map[string]*stageTrack{},
		shards:   map[int]*sampleWindow{},
		fleet:    newSampleWindow(cfg.FastWindow),
		sentinel: NewSentinel(cfg.Sentinel),
	}
	s.Tracer.now, s.Tracer.epoch = cfg.Now, s.start
	s.Flight.now, s.Flight.epoch = cfg.Now, s.start
	for _, o := range cfg.Objectives {
		if err := o.validate(); err != nil {
			s.Event(slog.LevelError, "obs", "objective.invalid", Err(err))
			continue
		}
		s.objectives = append(s.objectives, &objectiveState{
			obj:  o,
			fast: newSampleWindow(cfg.FastWindow),
			slow: newSampleWindow(cfg.SlowWindow),
		})
	}
	s.sentinel.onRaise = func(a Alert) {
		s.Event(slog.LevelError, "obs", "alert.raised",
			slog.String("kind", a.Kind), slog.String("subject", a.Subject),
			slog.String("severity", a.Severity), slog.Float64("value", a.Value),
			slog.Float64("baseline", a.Baseline), slog.String("reason", a.Reason))
	}
	s.sentinel.onClear = func(a Alert) {
		s.Event(slog.LevelInfo, "obs", "alert.cleared",
			slog.String("kind", a.Kind), slog.String("subject", a.Subject),
			slog.String("severity", a.Severity))
	}
	s.Event(slog.LevelInfo, "obs", "engine.started",
		slog.Int("objectives", len(s.objectives)),
		slog.Duration("fast_window", cfg.FastWindow),
		slog.Duration("slow_window", cfg.SlowWindow))
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

// nowNs returns the sink clock in unix nanoseconds.
func (s *Sink) nowNs() int64 { return s.cfg.Now().UnixNano() }

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
// long and ending now: the stage's latency histogram, its health window,
// per-stage objectives and regression sentinel, and the job's flight
// timeline. Nil-safe.
func (s *Sink) StageDone(trace TraceID, stage string, durNs int64) {
	if s == nil {
		return
	}
	clock := s.cfg.Now()
	now := clock.UnixNano()
	s.mu.Lock()
	t := s.stages[stage]
	if t == nil {
		t = &stageTrack{
			hist:   s.Metrics.Histogram("core/stage/" + stage + "/ns"),
			window: newSampleWindow(s.cfg.FastWindow),
		}
		s.stages[stage] = t
		s.stageOrder = append(s.stageOrder, stage)
	}
	t.hist.Observe(durNs)
	t.window.Add(now, durNs, false)
	for _, st := range s.objectives {
		if st.obj.Kind == KindLatency && st.obj.Stage == stage {
			st.observe(now, durNs, false)
		}
	}
	s.mu.Unlock()
	s.sentinel.Observe(AlertStageRegression, "stage/"+stage, float64(durNs), now)
	end := clock.Sub(s.start).Nanoseconds() // the flight recorder's epoch is s.start
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
// counters and the end-to-end histogram, the in-flight gauge, the
// flight timeline's close, a job.completed (debug) or job.failed (error)
// event, and the end-to-end objectives and the fleet and per-shard
// failure windows, re-judging the storm, burn and shard alerts.
// Nil-safe.
func (s *Sink) JobDone(j JobEnd) {
	if s == nil {
		return
	}
	js := s.jobSeries()
	failed := j.Err != nil
	if failed {
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

	now := s.nowNs()
	s.mu.Lock()
	for _, st := range s.objectives {
		if st.obj.Kind == KindErrorRate || (st.obj.Kind == KindLatency && st.obj.Stage == "") {
			st.observe(now, j.E2ENs, failed)
		}
	}
	s.fleet.Add(now, 1, failed)
	sw := s.shards[j.Shard]
	if sw == nil {
		sw = newSampleWindow(s.cfg.FastWindow)
		s.shards[j.Shard] = sw
	}
	sw.Add(now, 1, failed)
	s.judgeLocked(now, j.Shard)
	s.mu.Unlock()
}
