// Package core implements BatchZK's primary contribution (§4 of the
// paper): the fully pipelined system for batch generation of
// zero-knowledge proofs.
//
// It has two coupled faces, like the module layer in internal/pipeline:
//
//   - BatchProver, a functional streaming prover: proof jobs enter one per
//     cycle and flow through four stage workers (encode+Merkle commit →
//     gate sum-check → linear sum-check → opening), each stage busy on a
//     different proof at any moment, with a bounded number of proofs in
//     flight (the dynamic-loading discipline). The proofs it emits are
//     bit-identical to the sequential reference prover in
//     internal/protocol, which the tests enforce.
//
//   - SimulateSystem, the system-level performance model: the per-proof
//     work of every stage (encoder multiply-adds, Merkle compressions,
//     sum-check table traffic) is composed into one gpusim pipeline and
//     evaluated on a device profile, producing the numbers of Tables 7–10.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/obs"
	"batchzk/internal/par"
	"batchzk/internal/protocol"
	"batchzk/internal/sched"
	"batchzk/internal/telemetry"
)

// Job is one proof-generation request: the inputs to the committed
// function (customer input and model, in the §5 application).
type Job struct {
	ID     int
	Public []field.Element
	Secret []field.Element
	// Witness may carry a precomputed wire assignment (e.g. from the ML
	// engine); when nil, the prover evaluates the circuit itself.
	Witness circuit.Assignment
	// Trace is the job's flight-recorder trace id. Zero (the default)
	// mints a fresh id at submission; a caller that already holds one —
	// e.g. a service layer that extracted it from a request context with
	// telemetry.TraceIDFrom — sets it here so the job keeps one timeline
	// across API boundaries, shard hand-offs, retries, and quarantine.
	Trace telemetry.TraceID
}

// Result pairs a job with its proof or error. Results arrive in
// completion order, which equals submission order (the pipeline is FIFO).
type Result struct {
	ID    int
	Proof *protocol.Proof
	Err   error
	// Trace is the job's flight-recorder trace id (0 when telemetry was
	// disabled), the key into the exported per-job timeline.
	Trace telemetry.TraceID
}

// StageNames labels the four prover pipeline stages.
var StageNames = [4]string{"commit", "gate-sumcheck", "linear-sumcheck", "opening"}

// Stats is a point-in-time snapshot of a BatchProver's counters: completed
// and failed proofs, the cumulative busy time of each pipeline stage —
// the software analogue of the paper's per-module amortized-time ratio,
// which drives its thread allocation (§4) — and QueueDepth, the number
// of proofs currently inside the pipeline (dequeued by the commit stage
// but not yet emitted as results), the live in-flight gauge the dynamic
// loading discipline bounds.
type Stats struct {
	Completed  int64
	Failed     int64
	QueueDepth int64
	StageNs    [4]int64
	// Resilience counters (see resilience.go): stage retries performed,
	// jobs dead-lettered, deadline kills, and panics converted to errors.
	Retries         int64
	Quarantined     int64
	Timeouts        int64
	PanicsRecovered int64
}

// StageShare returns stage i's fraction of the total busy time.
func (s Stats) StageShare(i int) float64 {
	total := int64(0)
	for _, ns := range s.StageNs {
		total += ns
	}
	if total == 0 {
		return 0
	}
	return float64(s.StageNs[i]) / float64(total)
}

// BatchProver streams proof jobs through the four prover stages.
type BatchProver struct {
	c *circuit.Circuit
	p *protocol.Params
	// depth bounds the number of proofs in flight (device-memory budget).
	depth int

	completed atomic.Int64
	failed    atomic.Int64
	inFlight  atomic.Int64
	stageNs   [4]atomic.Int64

	// Resilience state (see resilience.go).
	res             *Resilience
	retries         atomic.Int64
	quarantinedN    atomic.Int64
	timeouts        atomic.Int64
	panicsRecovered atomic.Int64
	qmu             sync.Mutex
	quarantined     []QuarantinedJob

	// tel overrides the process-wide telemetry sink when non-nil.
	tel *telemetry.Sink

	// shard is this prover's index inside a ShardedProver (-1 when the
	// prover is unsharded), recorded on every job's flight timeline.
	shard int
}

// Stats returns a snapshot of the prover's counters.
func (bp *BatchProver) Stats() Stats {
	s := Stats{
		Completed:  bp.completed.Load(),
		Failed:     bp.failed.Load(),
		QueueDepth: bp.inFlight.Load(),
	}
	for i := range s.StageNs {
		s.StageNs[i] = bp.stageNs[i].Load()
	}
	s.Retries = bp.retries.Load()
	s.Quarantined = bp.quarantinedN.Load()
	s.Timeouts = bp.timeouts.Load()
	s.PanicsRecovered = bp.panicsRecovered.Load()
	return s
}

// SetTelemetry directs the prover's metrics and spans into s instead of
// the process-wide sink. Call before Run/ProveBatch; a nil s restores
// the global-sink behavior.
func (bp *BatchProver) SetTelemetry(s *telemetry.Sink) { bp.tel = s }

// instruments is the per-Run bundle of resolved telemetry handles. Every
// field may be nil (telemetry disabled) — all recording methods tolerate
// that — so the hot path costs one nil check per record.
type instruments struct {
	tracer    *telemetry.Tracer
	stageHist [4]*telemetry.Histogram
	e2e       *telemetry.Histogram
	queueWait *telemetry.Histogram
	inFlight  *telemetry.Gauge
	completed *telemetry.Counter
	failed    *telemetry.Counter
	// Resilience instruments.
	retries     *telemetry.Counter
	quarantined *telemetry.Counter
	timeouts    *telemetry.Counter
	panics      *telemetry.Counter
	backoff     *telemetry.Histogram
	// flight is the per-job timeline recorder (nil when telemetry is off).
	flight *telemetry.FlightRecorder
}

func (bp *BatchProver) instruments() instruments {
	sink := telemetry.Resolve(bp.tel) // nil-safe: nil sink → nil handles
	var ins instruments
	ins.tracer = sink.Trace()
	for i, name := range StageNames {
		ins.stageHist[i] = sink.Histogram("core/stage/" + name + "/ns")
	}
	ins.e2e = sink.Histogram("core/job/e2e_ns")
	ins.queueWait = sink.Histogram("core/job/queue_wait_ns")
	ins.inFlight = sink.Gauge("core/jobs/in_flight")
	ins.completed = sink.Counter("core/jobs/completed")
	ins.failed = sink.Counter("core/jobs/failed")
	ins.retries = sink.Counter("core/jobs/retries")
	ins.quarantined = sink.Counter("core/jobs/quarantined")
	ins.timeouts = sink.Counter("core/jobs/timeouts")
	ins.panics = sink.Counter("core/jobs/panics_recovered")
	ins.backoff = sink.Histogram("core/job/retry_backoff_ns")
	ins.flight = sink.FlightRecorder()
	return ins
}

// timeStage accumulates wall time into a stage counter, the stage's
// latency histogram, and a "core" layer span parented to the job's span.
func (bp *BatchProver) timeStage(i int, ins instruments, parent telemetry.SpanID, task int, f func()) {
	sp := ins.tracer.Begin("core", "stage/"+StageNames[i], parent, i, task)
	start := time.Now()
	f()
	ns := time.Since(start).Nanoseconds()
	bp.stageNs[i].Add(ns)
	ins.stageHist[i].Observe(ns)
	obs.Active().ObserveStage(StageNames[i], ns)
	sp.End()
}

// observeWait records how long a message sat in an inter-stage queue —
// the live signal (together with per-stage histograms) for choosing the
// pipeline depth from data rather than the static StageShare ratio —
// and returns the wait in ns for the job's flight timeline.
func (ins instruments) observeWait(enq time.Time) int64 {
	if enq.IsZero() {
		return 0
	}
	ns := time.Since(enq).Nanoseconds()
	ins.queueWait.Observe(ns)
	return ns
}

// NewBatchProver builds a batch prover for one circuit. depth is the
// number of proofs in flight (≥ 1); it bounds memory exactly the way the
// paper's dynamic loading does — one proof's data per pipeline stage.
func NewBatchProver(c *circuit.Circuit, p *protocol.Params, depth int) (*BatchProver, error) {
	if c == nil || p == nil {
		return nil, fmt.Errorf("core: nil circuit or params")
	}
	if depth < 1 {
		return nil, fmt.Errorf("core: pipeline depth %d < 1", depth)
	}
	return &BatchProver{c: c, p: p, depth: depth, shard: -1}, nil
}

// Circuit returns the circuit being proven.
func (bp *BatchProver) Circuit() *circuit.Circuit { return bp.c }

// Params returns the protocol parameters.
func (bp *BatchProver) Params() *protocol.Params { return bp.p }

// stageMsg carries an in-flight proof between stage workers.
type stageMsg struct {
	id    int
	src   Job
	arena *protocol.Arena // the proof's memory, recycled at hand-off
	f     *protocol.InFlight
	proof *protocol.Proof
	err   error
	// started stamps stage-1 dequeue for the end-to-end latency metric;
	// enq stamps the end of the previous stage for the queue-wait metric.
	started time.Time
	enq     time.Time
	// job is the per-job telemetry span, open from dequeue to result.
	job *telemetry.ActiveSpan
	// trace is the job's flight-recorder id, stamped at submission and
	// carried across every stage hop, retry, and quarantine; waitNs is the
	// queue wait ahead of the stage currently running, for its timeline.
	trace  telemetry.TraceID
	waitNs int64
	// quarantined marks a job the resilience layer dead-lettered, so the
	// result loop can distinguish "failed" from "failed and given up on"
	// when it feeds the obs quarantine-storm detector.
	quarantined bool
}

// processStage runs one prover stage on one message, on that stage's
// goroutine. All mutable state is either inside the message or atomic,
// so the four stages run concurrently on different messages; runStage
// layers the resilience semantics (retries, deadlines, panic recovery,
// quarantine) per message.
//
// arenas is the run's free list of per-proof arenas: a proof takes one at
// its first stage and gives it back when its result is handed out, the
// same point that frees its in-flight slot, so depth arenas serve every
// proof after the first depth.
func (bp *BatchProver) processStage(stage int, ins instruments, arenas chan *protocol.Arena, m *stageMsg) {
	switch stage {
	case 0:
		m.started = time.Now()
		obs.Active().ObserveQueueDepth(bp.inFlight.Add(1))
		ins.inFlight.Add(1)
		m.job = ins.tracer.Begin("core", "job", 0, len(StageNames), m.id)
		m.job.SetTrace(m.trace)
		m.waitNs = 0 // admission wait is stamped by the flight recorder
		job := m.src
		select {
		case m.arena = <-arenas:
		default:
			m.arena = new(protocol.Arena)
		}
		bp.runStage(0, ins, m, func() error {
			var err error
			if job.Witness == nil {
				m.f, err = m.arena.StartProofFromInputs(bp.c, bp.p, job.Public, job.Secret)
			} else {
				m.f, err = m.arena.StartProof(bp.c, bp.p, job.Witness)
			}
			return err
		})
		m.src = Job{} // drop the witness; the in-flight proof carries on
	case 1:
		m.waitNs = ins.observeWait(m.enq)
		bp.runStage(1, ins, m, func() error { return m.f.RunHadamard() })
	case 2:
		m.waitNs = ins.observeWait(m.enq)
		bp.runStage(2, ins, m, func() error { return m.f.RunLinear() })
	case 3:
		m.waitNs = ins.observeWait(m.enq)
		bp.runStage(3, ins, m, func() error {
			var err error
			m.proof, err = m.f.Finish()
			return err
		})
		// The in-flight state (column tree, padded witness) is
		// dead once the proof exists; drop it before the message waits
		// for emission so only finished proofs occupy that window.
		m.f = nil
	}
	m.enq = time.Now()
}

// Run consumes jobs until the channel closes and emits one Result per job
// on the returned channel, in submission order. The four stages run
// concurrently on the sched execution layer, one goroutine per stage —
// the software realization of the full-workload state of §4 — and at
// most depth proofs are in flight (the dynamic-loading memory bound).
func (bp *BatchProver) Run(jobs <-chan Job) <-chan Result {
	ins := bp.instruments()
	arenas := make(chan *protocol.Arena, bp.depth)
	g, err := sched.NewGraph(StageNames[:], func(stage int, m *stageMsg) {
		bp.processStage(stage, ins, arenas, m)
	}, sched.Options{Name: "core", InFlight: bp.depth, Telemetry: bp.tel})
	if err != nil {
		// Unreachable: the stages are fixed and depth is validated at
		// construction. Surface loudly rather than wedging the stream.
		panic(fmt.Sprintf("core: scheduler rejected prover stage graph: %v", err))
	}
	// Last-resort backstop: runStage already converts stage panics into
	// job errors, so this only fires if the resilience layer itself dies.
	g.SetRecover(func(stage int, m *stageMsg, r any) {
		if m.err == nil {
			m.err = fmt.Errorf("core: stage %s scheduler panic on job %d: %v", StageNames[stage], m.id, r)
		}
	})

	gin := make(chan stageMsg, bp.depth)
	go func() {
		defer close(gin)
		for job := range jobs {
			// Submit mints a trace id for untagged jobs and re-submits
			// tagged ones unchanged, so a sharded hand-off keeps one
			// timeline while recording which shard the job landed on.
			trace := ins.flight.Submit(job.Trace, job.ID, bp.shard)
			gin <- stageMsg{id: job.ID, src: job, trace: trace}
		}
	}()

	// Unbuffered: a result is handed out when the consumer takes it, and
	// only then does its proof give back its slot and its arena.
	results := make(chan Result)
	go func() {
		defer close(results)
		g.Run(gin, func(m stageMsg) {
			m.job.End()
			e2eNs := time.Since(m.started).Nanoseconds()
			ins.e2e.Observe(e2eNs)
			obs.Active().ObserveQueueDepth(bp.inFlight.Add(-1))
			ins.inFlight.Add(-1)
			obs.Active().ObserveJob(bp.shard, e2eNs, m.err != nil, m.quarantined)
			if m.arena != nil {
				select {
				case arenas <- m.arena:
				default:
				}
			}
			if m.err != nil {
				bp.failed.Add(1)
				ins.failed.Inc()
				ins.flight.Emit(m.trace, m.err.Error())
				results <- Result{ID: m.id, Err: m.err, Trace: m.trace}
				return
			}
			bp.completed.Add(1)
			ins.completed.Inc()
			ins.flight.Emit(m.trace, "")
			obs.Debug("core", "job.completed", obs.Job(m.id), obs.Trace(m.trace), obs.Shard(bp.shard))
			results <- Result{ID: m.id, Proof: m.proof, Trace: m.trace}
		})
		// The arenas die with the run; the kernels' free lists are
		// emptied so an idle prover holds no proof-sized buffers.
		par.ReleaseIdle()
	}()
	return results
}

// ProveBatch is the convenience form: submit a slice of jobs, collect all
// results (in order). The whole batch is buffered up front so a slow
// stage or consumer never serializes submission.
func (bp *BatchProver) ProveBatch(jobs []Job) []Result {
	in := make(chan Job, len(jobs))
	for _, j := range jobs {
		in <- j
	}
	close(in)
	results := make([]Result, 0, len(jobs))
	for r := range bp.Run(in) {
		results = append(results, r)
	}
	return results
}

// Verify checks a result produced by this prover.
func (bp *BatchProver) Verify(public []field.Element, proof *protocol.Proof) error {
	return protocol.Verify(bp.c, bp.p, public, proof)
}
