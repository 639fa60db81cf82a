// Package obs is the always-on operations layer of the reproduction: the
// live answer to "is the prover healthy, and will anyone notice before
// the clients do?".
//
// internal/telemetry records what happened — metrics, spans, per-job
// flight timelines. This package judges it, in four coupled parts:
//
//   - a structured, leveled event log (log/slog, JSON, trace-id-aware)
//     that core, gpusim, and vml emit operational events into;
//   - an SLO engine: configurable objectives (end-to-end p99 latency,
//     per-stage latency, error rate) evaluated over sliding windows,
//     with multi-window burn rates and an error-budget ledger;
//   - an anomaly sentinel comparing live per-kernel ns/element against
//     the calibrated roofline floors and EWMA baselines, and per-shard
//     failure rates against the fleet, raising hysteretic Alerts;
//   - operator surfaces: /healthz, /readyz, and /debug/obs/slo on the
//     telemetry debug server, consumed by the batchzk-top console.
//
// Like internal/telemetry, the package is disabled by default and costs
// one nil check per instrumentation point: Enable installs a process-wide
// Engine, every method is a no-op on a nil receiver, and all state is
// safe for concurrent use.
package obs

import (
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Config assembles an Engine. The zero value is usable: logging off,
// default objectives, default windows and sentinel thresholds.
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
	// QuarantineStormFrac flips readiness when the quarantined fraction
	// of jobs in the fast window reaches it (default 0.25).
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
	// Floors seeds the sentinel's per-kernel roofline floors
	// (kernel name → calibrated ns/element).
	Floors map[string]float64
	// Now overrides the clock for tests (default time.Now).
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

// stageTrack accumulates one pipeline stage's live stream.
type stageTrack struct {
	window  *sampleWindow
	count   int64
	totalNs int64
}

// Engine is the live health evaluator. Build with New, install
// process-wide with Enable. All methods are nil-safe and safe for
// concurrent use.
type Engine struct {
	cfg   Config
	log   *slog.Logger
	start time.Time

	queueDepth atomic.Int64

	mu         sync.Mutex
	objectives []*objectiveState
	stages     map[string]*stageTrack
	stageOrder []string
	shards     map[int]*sampleWindow
	fleet      *sampleWindow // all jobs, bad = failed (shard comparison base)
	quar       *sampleWindow // all jobs, bad = quarantined (storm detection)
	jobs       int64
	failed     int64
	quarN      int64

	sentinel *Sentinel
}

// New builds an Engine from cfg (zero Config = sane defaults).
// Objectives are validated; an invalid objective is dropped with an
// error event rather than failing construction, so a misconfigured
// target can never take observability down with it.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		log:      newLogger(cfg.LogOutput, cfg.LogLevel),
		start:    cfg.Now(),
		stages:   map[string]*stageTrack{},
		shards:   map[int]*sampleWindow{},
		fleet:    newSampleWindow(cfg.FastWindow),
		quar:     newSampleWindow(cfg.FastWindow),
		sentinel: NewSentinel(cfg.Sentinel),
	}
	for _, o := range cfg.Objectives {
		if err := o.validate(); err != nil {
			e.Event(slog.LevelError, "obs", "objective.invalid", Err(err))
			continue
		}
		e.objectives = append(e.objectives, &objectiveState{
			obj:  o,
			fast: newSampleWindow(cfg.FastWindow),
			slow: newSampleWindow(cfg.SlowWindow),
		})
	}
	e.sentinel.SetFloors(cfg.Floors)
	e.sentinel.onRaise = func(a Alert) {
		e.Event(slog.LevelError, "obs", "alert.raised",
			slog.String("kind", a.Kind), slog.String("subject", a.Subject),
			slog.String("severity", a.Severity), slog.Float64("value", a.Value),
			slog.Float64("baseline", a.Baseline), slog.String("reason", a.Reason))
	}
	e.sentinel.onClear = func(a Alert) {
		e.Event(slog.LevelInfo, "obs", "alert.cleared",
			slog.String("kind", a.Kind), slog.String("subject", a.Subject),
			slog.String("severity", a.Severity))
	}
	e.Event(slog.LevelInfo, "obs", "engine.started",
		slog.Int("objectives", len(e.objectives)),
		slog.Duration("fast_window", cfg.FastWindow),
		slog.Duration("slow_window", cfg.SlowWindow))
	return e
}

// global is the process-wide engine; nil means obs is off.
var global atomic.Pointer[Engine]

// Enable installs e as the process-wide engine picked up by every
// instrumented layer. Enable(nil) disables obs again.
func Enable(e *Engine) { global.Store(e) }

// Active returns the process-wide engine, or nil when obs is off.
func Active() *Engine { return global.Load() }

// Resolve returns the explicit engine when non-nil, else the global one.
func Resolve(explicit *Engine) *Engine {
	if explicit != nil {
		return explicit
	}
	return Active()
}

// nowNs returns the engine clock in unix nanoseconds.
func (e *Engine) nowNs() int64 { return e.cfg.Now().UnixNano() }

// Sentinel exposes the engine's sentinel (nil on a nil engine), for
// callers that feed measurements directly (the roofline profiler).
func (e *Engine) Sentinel() *Sentinel {
	if e == nil {
		return nil
	}
	return e.sentinel
}

// SetFloors installs calibrated roofline floors (kernel →
// ns/element) on the sentinel. Nil-safe.
func (e *Engine) SetFloors(floors map[string]float64) {
	if e == nil {
		return
	}
	e.sentinel.SetFloors(floors)
	e.Event(slog.LevelInfo, "obs", "roofline.floors_loaded", slog.Int("kernels", len(floors)))
}

// ObserveQueueDepth records the live number of jobs inside the pipeline.
func (e *Engine) ObserveQueueDepth(depth int64) {
	if e == nil {
		return
	}
	e.queueDepth.Store(depth)
}

// ObserveJob folds one finished job into every end-to-end objective, the
// fleet and quarantine windows, and the per-shard failure tracking, then
// re-judges the storm, burn, and shard conditions. shard is -1 for an
// unsharded prover.
func (e *Engine) ObserveJob(shard int, e2eNs int64, failed, quarantined bool) {
	if e == nil {
		return
	}
	now := e.nowNs()
	e.mu.Lock()
	e.jobs++
	if failed {
		e.failed++
	}
	if quarantined {
		e.quarN++
	}
	for _, st := range e.objectives {
		if st.obj.Kind == KindErrorRate || (st.obj.Kind == KindLatency && st.obj.Stage == "") {
			st.observe(now, e2eNs, failed)
		}
	}
	e.fleet.Add(now, 1, failed)
	e.quar.Add(now, 1, quarantined)
	sw := e.shards[shard]
	if sw == nil {
		sw = newSampleWindow(e.cfg.FastWindow)
		e.shards[shard] = sw
	}
	sw.Add(now, 1, failed)
	e.judgeLocked(now, shard)
	e.mu.Unlock()
}

// ObserveStage folds one completed stage execution into the stage's
// live stream, any per-stage latency objectives, and the sentinel's
// stage baseline.
func (e *Engine) ObserveStage(stage string, ns int64) {
	if e == nil {
		return
	}
	now := e.nowNs()
	e.mu.Lock()
	t := e.stages[stage]
	if t == nil {
		t = &stageTrack{window: newSampleWindow(e.cfg.FastWindow)}
		e.stages[stage] = t
		e.stageOrder = append(e.stageOrder, stage)
	}
	t.window.Add(now, ns, false)
	t.count++
	t.totalNs += ns
	for _, st := range e.objectives {
		if st.obj.Kind == KindLatency && st.obj.Stage == stage {
			st.observe(now, ns, false)
		}
	}
	e.mu.Unlock()
	e.sentinel.Observe(AlertStageRegression, "stage/"+stage, float64(ns), now)
}

// ObserveKernel feeds one per-kernel ns/element measurement to the
// sentinel, judged against the kernel's calibrated roofline floor and
// its recent baseline.
func (e *Engine) ObserveKernel(kernel string, nsPerElement float64) {
	if e == nil {
		return
	}
	e.sentinel.Observe(AlertKernelRegression, kernel, nsPerElement, e.nowNs())
}

// judgeLocked re-evaluates the storm, SLO-burn, and shard-vs-fleet
// conditions after a job observation; e.mu is held.
func (e *Engine) judgeLocked(now int64, shard int) {
	minN := int64(e.cfg.MinJudgeSamples)

	// Quarantine storm: the fast window's quarantined fraction.
	total, bad := e.quar.Counts(now)
	frac := 0.0
	if total > 0 {
		frac = float64(bad) / float64(total)
	}
	e.sentinel.Judge(AlertQuarantineStorm, "pipeline", SeverityCritical,
		total >= minN && frac >= e.cfg.QuarantineStormFrac,
		frac, e.cfg.QuarantineStormFrac,
		"quarantined job fraction over the fast window at or above the storm threshold", now)

	// Multi-window SLO burn per objective.
	for _, st := range e.objectives {
		allowed := st.obj.allowedBadFrac()
		fastN, _ := st.fast.Counts(now)
		fb := burn(st.fast, now, allowed)
		sb := burn(st.slow, now, allowed)
		e.sentinel.Judge(AlertSLOBurn, st.obj.Name, SeverityCritical,
			fastN >= minN && fb >= e.cfg.BurnThreshold && sb >= e.cfg.BurnThreshold,
			fb, e.cfg.BurnThreshold,
			"error budget burning above threshold in both the fast and slow windows", now)
	}

	// This shard's failure rate against the fleet.
	if sw := e.shards[shard]; sw != nil && shard >= 0 {
		sTotal, sBad := sw.Counts(now)
		fTotal, fBad := e.fleet.Counts(now)
		if sTotal >= minN && fTotal > 0 {
			sRate := float64(sBad) / float64(sTotal)
			fRate := float64(fBad) / float64(fTotal)
			limit := fRate*e.cfg.ShardFailFactor + e.cfg.ShardFailMargin
			e.sentinel.Judge(AlertShardFailures, shardSubject(shard), SeverityWarning,
				sRate > limit, sRate, limit,
				"shard failure rate departing from the fleet", now)
		}
	}
}

func shardSubject(shard int) string {
	if shard < 0 {
		return "shard/unsharded"
	}
	return "shard/" + itoa(shard)
}

// itoa avoids strconv in the hot path signature (tiny shard counts).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Ready reports readiness: false (with a reason) while any critical
// alert is active. A nil engine is ready — obs off means "don't gate".
func (e *Engine) Ready() (bool, string) {
	if e == nil {
		return true, "obs disabled"
	}
	for _, a := range e.sentinel.ActiveAlerts() {
		if a.Severity == SeverityCritical {
			return false, a.Kind + " on " + a.Subject + ": " + a.Reason
		}
	}
	return true, "ok"
}

// ActiveAlerts returns the live alerts, newest first. Nil-safe.
func (e *Engine) ActiveAlerts() []Alert {
	if e == nil {
		return nil
	}
	return e.sentinel.ActiveAlerts()
}

// Alerts returns the alert history, newest first. Nil-safe.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	return e.sentinel.Alerts()
}

// SnapshotSchemaVersion identifies the /debug/obs/slo JSON layout.
const SnapshotSchemaVersion = 1

// StageStatus is one pipeline stage's live view in a Snapshot.
type StageStatus struct {
	Name string `json:"name"`
	// RatePerSec is the stage's completion throughput over the fast
	// window; P50Ns/P99Ns are its fast-window latency quantiles.
	RatePerSec float64 `json:"rate_per_sec"`
	P50Ns      float64 `json:"p50_ns"`
	P99Ns      float64 `json:"p99_ns"`
	// Count and TotalNs are lifetime accumulations.
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

// JobCounters is the lifetime job accounting of a Snapshot.
type JobCounters struct {
	Total       int64 `json:"total"`
	Failed      int64 `json:"failed"`
	Quarantined int64 `json:"quarantined"`
	QueueDepth  int64 `json:"queue_depth"`
}

// Snapshot is the operator view served on /debug/obs/slo and rendered
// by batchzk-top.
type Snapshot struct {
	SchemaVersion int    `json:"schema_version"`
	NowNs         int64  `json:"now_ns"`
	UptimeNs      int64  `json:"uptime_ns"`
	Ready         bool   `json:"ready"`
	ReadyReason   string `json:"ready_reason"`

	Jobs       JobCounters       `json:"jobs"`
	Stages     []StageStatus     `json:"stages"`
	Objectives []ObjectiveStatus `json:"objectives"`
	// ActiveAlerts are the live alerts; AlertsTotal counts every alert
	// ever raised (history is capped, the counter is not).
	ActiveAlerts []Alert `json:"active_alerts"`
	AlertsTotal  int64   `json:"alerts_total"`
}

// Snapshot evaluates everything at the engine clock's now. Nil-safe: a
// nil engine returns a ready, empty snapshot.
func (e *Engine) Snapshot() Snapshot {
	if e == nil {
		ready, reason := e.Ready()
		return Snapshot{SchemaVersion: SnapshotSchemaVersion, Ready: ready, ReadyReason: reason}
	}
	now := e.nowNs()
	ready, reason := e.Ready()
	s := Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		NowNs:         now,
		UptimeNs:      now - e.start.UnixNano(),
		Ready:         ready,
		ReadyReason:   reason,
		ActiveAlerts:  e.sentinel.ActiveAlerts(),
	}
	if s.ActiveAlerts == nil {
		s.ActiveAlerts = []Alert{}
	}
	e.sentinel.mu.Lock()
	s.AlertsTotal = e.sentinel.nextID
	e.sentinel.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	s.Jobs = JobCounters{
		Total: e.jobs, Failed: e.failed, Quarantined: e.quarN,
		QueueDepth: e.queueDepth.Load(),
	}
	s.Stages = make([]StageStatus, 0, len(e.stageOrder))
	for _, name := range e.stageOrder {
		t := e.stages[name]
		st := StageStatus{Name: name, Count: t.count, TotalNs: t.totalNs,
			RatePerSec: t.window.SumRate(now)}
		if q, ok := t.window.Quantile(now, 0.50); ok {
			st.P50Ns = float64(q)
		}
		if q, ok := t.window.Quantile(now, 0.99); ok {
			st.P99Ns = float64(q)
		}
		s.Stages = append(s.Stages, st)
	}
	s.Objectives = make([]ObjectiveStatus, 0, len(e.objectives))
	for _, st := range e.objectives {
		s.Objectives = append(s.Objectives, st.status(now))
	}
	return s
}

// Uptime returns how long the engine has been alive. Nil-safe.
func (e *Engine) Uptime() time.Duration {
	if e == nil {
		return 0
	}
	return e.cfg.Now().Sub(e.start)
}
