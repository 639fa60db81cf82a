package batchzk

import (
	"net/http"

	"batchzk/internal/obs"
	"batchzk/internal/telemetry"
)

// Operations layer (internal/obs): the always-on health surface over the
// telemetry substrate. An ObsEngine runs the structured JSON event log,
// the SLO engine (windowed objectives, multi-window burn rates, error
// budgets), and the anomaly sentinel (roofline-floor and EWMA-baseline
// regression alerts, shard-vs-fleet failure divergence, failed-job storm
// readiness gating). Enable one process-wide and the instrumented layers
// — batch prover, scheduler, GPU simulator, vml service — feed it;
// /healthz, /readyz, and /debug/obs/slo appear on the telemetry debug
// server, and `batchzk-top` renders the live snapshot.

// ObsConfig assembles an ObsEngine; the zero value uses the default
// objectives (e2e p99 ≤ 250ms, error rate ≤ 2%), windows, and thresholds.
type ObsConfig = obs.Config

// ObsEngine is the live health evaluator: SLO tracking, anomaly alerts,
// readiness. All methods are nil-safe.
type ObsEngine = obs.Engine

// ObsObjective is one configurable service-level objective (a latency
// quantile bound or an error-rate bound).
type ObsObjective = obs.Objective

// ObsObjectiveStatus is one objective's point-in-time evaluation:
// windowed value, attainment, fast/slow burn rates, budget remaining.
type ObsObjectiveStatus = obs.ObjectiveStatus

// ObsSnapshot is the operator view served on /debug/obs/slo.
type ObsSnapshot = obs.Snapshot

// ObsAlert is one structured sentinel finding (kernel/stage regression,
// shard failure divergence, SLO burn, failed-job storm).
type ObsAlert = obs.Alert

// ObsSentinelConfig tunes the anomaly sentinel inside an ObsConfig
// (EWMA smoothing, regression factors, hysteresis depths).
type ObsSentinelConfig = obs.SentinelConfig

// Objective kinds and alert severities, re-exported for configuration.
const (
	ObsKindLatency      = obs.KindLatency
	ObsKindErrorRate    = obs.KindErrorRate
	ObsSeverityWarning  = obs.SeverityWarning
	ObsSeverityCritical = obs.SeverityCritical
)

// NewObsEngine builds an engine from cfg (zero ObsConfig = defaults).
func NewObsEngine(cfg ObsConfig) *ObsEngine { return obs.New(cfg) }

// EnableObs installs e as the process-wide engine every instrumented
// layer records into; EnableObs(nil) turns the operations layer off.
func EnableObs(e *ObsEngine) { obs.Enable(e) }

// ActiveObs returns the process-wide engine, or nil when obs is off.
func ActiveObs() *ObsEngine { return obs.Active() }

// DefaultObsObjectives returns the stock service objectives.
func DefaultObsObjectives() []ObsObjective { return obs.DefaultObjectives() }

// ObsHandler returns a standalone mux serving /healthz, /readyz, and
// /debug/obs/slo, for embedding into servers that do not mount the
// telemetry debug handler.
func ObsHandler() http.Handler { return obs.Handler() }

// TelemetryRuntime owns the long-running telemetry components (mem
// samplers, debug servers) started through it and stops all of them with
// one idempotent, concurrency-safe Close.
type TelemetryRuntime = telemetry.Runtime
