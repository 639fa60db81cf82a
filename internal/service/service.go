package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/protocol"
	"batchzk/internal/telemetry"
)

// Prover is the proving backend the gateway hands jobs to.
// core.BatchProver and core.ShardedProver both satisfy it.
type Prover interface {
	Run(jobs <-chan core.Job) <-chan core.Result
	Stats() core.Stats
	Verify(public []field.Element, proof *protocol.Proof) error
}

// Status is a job's lifecycle state. queued → proving → one terminal
// state; transitions are exactly-once.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusProving Status = "proving"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
	StatusTimeout Status = "timeout"
)

// Terminal reports whether s is an end state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusTimeout
}

// Config shapes the gateway. Zero values get the batcher defaults plus
// MaxBody 1 MiB. A per-job deadline is the prover's own setting
// (SetJobDeadline on core.BatchProver or core.ShardedProver); a job it
// cuts off ends StatusTimeout.
type Config struct {
	// Hand-off size, queue bound, priorities, and quotas — see
	// BatcherConfig.
	MaxBatch     int
	QueueCap     int
	Priorities   int
	DefaultQuota QuotaSpec
	Quotas       map[string]QuotaSpec
	// MaxWait is ignored. It used to hold under-full batches back for a
	// latency window; admission is now work-conserving, so a job waits
	// only while the prover is busy (see Batcher.Take).
	MaxWait time.Duration

	// MaxBody caps the HTTP request body in bytes (default 1 MiB);
	// larger submissions get 413.
	MaxBody int64
	// Telemetry overrides the process-wide sink for trace minting.
	Telemetry *telemetry.Sink
}

func (c Config) withDefaults() Config {
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	return c
}

// JobInfo is an external snapshot of one job's state.
type JobInfo struct {
	ID        string            `json:"job_id"`
	Tenant    string            `json:"tenant"`
	Priority  int               `json:"priority"`
	Status    Status            `json:"status"`
	TraceID   telemetry.TraceID `json:"trace_id"`
	Err       string            `json:"error,omitempty"`
	LatencyNs int64             `json:"latency_ns,omitempty"`
	// Proof is set only on StatusDone.
	Proof *protocol.Proof `json:"-"`
}

// Event is one terminal job notification on the results stream.
type Event struct {
	JobID     string            `json:"job_id"`
	Tenant    string            `json:"tenant"`
	Status    Status            `json:"status"`
	TraceID   telemetry.TraceID `json:"trace_id"`
	Err       string            `json:"error,omitempty"`
	LatencyNs int64             `json:"latency_ns"`
}

// job is the gateway-side record of one submission.
type job struct {
	extID    string
	seq      int // internal id, the core.Job ID
	tenant   string
	priority int
	trace    telemetry.TraceID
	public   []field.Element
	secret   []field.Element

	mu        sync.Mutex
	status    Status
	proof     *protocol.Proof
	errMsg    string
	submitted time.Time
	finished  time.Time
	done      chan struct{}
}

func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID: j.extID, Tenant: j.tenant, Priority: j.priority,
		Status: j.status, TraceID: j.trace,
		Err: j.errMsg, Proof: j.proof,
	}
	if j.status.Terminal() {
		info.LatencyNs = j.finished.Sub(j.submitted).Nanoseconds()
	}
	return info
}

// GatewayStats is a point-in-time snapshot of the gateway counters.
type GatewayStats struct {
	Accepted         int64   `json:"accepted"`
	RejectedQuota    int64   `json:"rejected_quota"`
	RejectedQueue    int64   `json:"rejected_queue"`
	RejectedDraining int64   `json:"rejected_draining"`
	Completed        int64   `json:"completed"`
	Failed           int64   `json:"failed"`
	Timeouts         int64   `json:"timeouts"`
	Batches          int64   `json:"batches"`
	BatchOccupancy   float64 `json:"batch_occupancy"`
	QueueDepth       int     `json:"queue_depth"`
	Draining         bool    `json:"draining"`
}

// Gateway is the multi-tenant proving service in front of a Prover.
// Construct with NewGateway, stop with Drain (resumable via Resume).
type Gateway struct {
	cfg    Config
	prover Prover

	mu   sync.Mutex
	jobs map[string]*job // external id → record
	byID map[int]*job    // in-flight internal seq → record
	seq  int

	batcher  *Batcher[*job]
	draining atomic.Bool
	pumps    sync.WaitGroup

	completed atomic.Int64
	failed    atomic.Int64
	timeouts  atomic.Int64

	subMu   sync.Mutex
	subs    map[int]chan Event
	subSeq  int
	dropped atomic.Int64

	// afterStreamFlush, when set (by tests, before the handler serves),
	// runs in each /v1/stream handler right after the header flush.
	afterStreamFlush func()
}

// NewGateway builds and starts a gateway over prover. The prover must
// be idle (no Run in progress); the gateway owns the prover's job
// stream from here on.
func NewGateway(prover Prover, cfg Config) (*Gateway, error) {
	if prover == nil {
		return nil, fmt.Errorf("service: nil prover")
	}
	g := &Gateway{
		cfg:    cfg.withDefaults(),
		prover: prover,
		jobs:   make(map[string]*job),
		byID:   make(map[int]*job),
		subs:   make(map[int]chan Event),
	}
	g.start()
	return g, nil
}

// Config returns the effective gateway configuration.
func (g *Gateway) Config() Config { return g.cfg }

// start wires a fresh batcher and prover run and launches the pumps.
// Called at construction and again by Resume.
func (g *Gateway) start() {
	g.batcher = NewBatcher[*job](BatcherConfig{
		MaxBatch: g.cfg.MaxBatch, QueueCap: g.cfg.QueueCap, Priorities: g.cfg.Priorities,
		DefaultQuota: g.cfg.DefaultQuota, Quotas: g.cfg.Quotas,
	})
	// Unbuffered: the only jobs outside the priority queue and the
	// prover are the pump's current Take, so priority inversion is
	// bounded by MaxBatch jobs.
	in := make(chan core.Job)
	out := g.prover.Run(in)
	g.pumps.Add(2)
	go g.batchPump(in)
	go g.resultPump(out)
}

// Submit admits one proving job for tenant. The caller's trace id (zero
// to mint a fresh one) seeds the job's flight-recorder timeline at
// admission, so queue wait is part of the recorded end-to-end latency.
func (g *Gateway) Submit(tenant string, priority int, public, secret []field.Element, callerTrace telemetry.TraceID) (JobInfo, error) {
	if g.draining.Load() {
		return JobInfo{}, ErrDraining
	}
	g.mu.Lock()
	g.seq++
	seq := g.seq
	g.mu.Unlock()

	flight := telemetry.Resolve(g.cfg.Telemetry).FlightRecorder()
	trace := flight.Submit(callerTrace, seq, -1)
	if trace == 0 {
		trace = callerTrace
	}
	j := &job{
		extID: fmt.Sprintf("j-%d", seq), tenant: tenant, priority: priority,
		trace: trace, public: public, secret: secret,
		seq: seq, status: StatusQueued, submitted: time.Now(),
		done: make(chan struct{}),
	}
	g.mu.Lock()
	g.jobs[j.extID] = j
	g.byID[seq] = j
	g.mu.Unlock()

	// The acknowledgement is the job as admitted: once in the queue it
	// may reach the prover before Submit returns.
	ack := j.info()
	if err := g.batcher.Submit(tenant, priority, j); err != nil {
		g.mu.Lock()
		delete(g.jobs, j.extID)
		delete(g.byID, seq)
		g.mu.Unlock()
		return JobInfo{}, err
	}
	telemetry.Debug("service", "job.accepted", telemetry.Job(seq), telemetry.Trace(trace))
	return ack, nil
}

// batchPump hands queued jobs to the prover's job stream as fast as
// the prover takes them, until a drain has emptied the queue.
func (g *Gateway) batchPump(in chan<- core.Job) {
	defer g.pumps.Done()
	defer close(in)
	for {
		batch, ok := g.batcher.Take()
		if !ok {
			return
		}
		for _, j := range batch {
			j.mu.Lock()
			j.status = StatusProving
			j.mu.Unlock()
			in <- core.Job{ID: j.seq, Public: j.public, Secret: j.secret, Trace: j.trace}
		}
	}
}

// resultPump resolves prover results into terminal job states: a job
// the prover's deadline cut off ends StatusTimeout, any other error
// StatusFailed.
func (g *Gateway) resultPump(out <-chan core.Result) {
	defer g.pumps.Done()
	for r := range out {
		g.mu.Lock()
		j := g.byID[r.ID]
		delete(g.byID, r.ID)
		g.mu.Unlock()
		if j == nil {
			// A result for a job the gateway never issued — only
			// possible if the prover is shared, which NewGateway forbids.
			telemetry.Warn("service", "result.orphaned", telemetry.Job(r.ID))
			continue
		}
		if r.Err == nil {
			g.resolve(j, StatusDone, r.Proof, "")
			continue
		}
		if errors.Is(r.Err, core.ErrJobDeadline) {
			g.resolve(j, StatusTimeout, nil, r.Err.Error())
		} else {
			g.resolve(j, StatusFailed, nil, r.Err.Error())
		}
	}
}

// resolve moves a job to a terminal state exactly once and notifies
// pollers and stream subscribers.
func (g *Gateway) resolve(j *job, st Status, proof *protocol.Proof, errMsg string) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status = st
	j.proof = proof
	j.errMsg = errMsg
	j.finished = time.Now()
	latency := j.finished.Sub(j.submitted).Nanoseconds()
	close(j.done)
	j.mu.Unlock()

	switch st {
	case StatusDone:
		g.completed.Add(1)
	case StatusTimeout:
		g.timeouts.Add(1)
	default:
		g.failed.Add(1)
	}
	g.publish(Event{
		JobID: j.extID, Tenant: j.tenant, Status: st,
		TraceID: j.trace, Err: errMsg, LatencyNs: latency,
	})
}

// Job returns the current snapshot of a job by external id.
func (g *Gateway) Job(id string) (JobInfo, bool) {
	g.mu.Lock()
	j := g.jobs[id]
	g.mu.Unlock()
	if j == nil {
		return JobInfo{}, false
	}
	return j.info(), true
}

// WaitJob blocks until the job reaches a terminal state or ctx expires,
// returning the snapshot either way.
func (g *Gateway) WaitJob(ctx context.Context, id string) (JobInfo, bool) {
	g.mu.Lock()
	j := g.jobs[id]
	g.mu.Unlock()
	if j == nil {
		return JobInfo{}, false
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return j.info(), true
}

// VerifyJob re-verifies a completed job's proof against its public
// input through the prover's verifier.
func (g *Gateway) VerifyJob(id string) error {
	g.mu.Lock()
	j := g.jobs[id]
	g.mu.Unlock()
	if j == nil {
		return fmt.Errorf("service: unknown job %q", id)
	}
	info := j.info()
	if info.Status != StatusDone || info.Proof == nil {
		return fmt.Errorf("service: job %q is %s, not done", id, info.Status)
	}
	return g.prover.Verify(j.public, info.Proof)
}

// Subscribe registers a terminal-event stream. Slow subscribers drop
// events (counted in DroppedEvents) rather than stall the prover.
func (g *Gateway) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 256)
	g.subMu.Lock()
	g.subSeq++
	id := g.subSeq
	g.subs[id] = ch
	g.subMu.Unlock()
	cancel := func() {
		g.subMu.Lock()
		if _, ok := g.subs[id]; ok {
			delete(g.subs, id)
			close(ch)
		}
		g.subMu.Unlock()
	}
	return ch, cancel
}

func (g *Gateway) publish(ev Event) {
	g.subMu.Lock()
	defer g.subMu.Unlock()
	for _, ch := range g.subs {
		select {
		case ch <- ev:
		default:
			g.dropped.Add(1)
		}
	}
}

// DroppedEvents counts stream events lost to slow subscribers.
func (g *Gateway) DroppedEvents() int64 { return g.dropped.Load() }

// Draining reports whether the gateway is refusing new work.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Ready reports whether the gateway should receive traffic: not
// draining, and its admission queue below QueueCap, so a submission
// now would not be refused with ErrQueueFull.
func (g *Gateway) Ready() (bool, string) {
	if g.draining.Load() {
		return false, "draining"
	}
	if g.batcher.Stats().QueueDepth >= g.batcher.Config().QueueCap {
		return false, "queue full"
	}
	return true, "ok"
}

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() GatewayStats {
	bs := g.batcher.Stats()
	return GatewayStats{
		Accepted:         bs.Accepted,
		RejectedQuota:    bs.RejectedQuota,
		RejectedQueue:    bs.RejectedQueue,
		RejectedDraining: bs.RejectedDraining,
		Completed:        g.completed.Load(),
		Failed:           g.failed.Load(),
		Timeouts:         g.timeouts.Load(),
		Batches:          bs.Batches,
		BatchOccupancy:   bs.Occupancy(g.batcher.Config().MaxBatch),
		QueueDepth:       bs.QueueDepth,
		Draining:         g.draining.Load(),
	}
}

// ProverStats exposes the backend prover's counters.
func (g *Gateway) ProverStats() core.Stats { return g.prover.Stats() }

// Drain gracefully stops the gateway: admission closes (new submissions
// get ErrDraining / 503), every accepted job is flushed, proven, and
// resolved, then the prover's stream is closed. Blocks until the last
// result lands. The gateway can be restarted with Resume.
func (g *Gateway) Drain() {
	if g.draining.Swap(true) {
		return
	}
	telemetry.Info("service", "gateway.draining")
	g.batcher.Drain() // batch pump takes the rest, then closes in
	g.pumps.Wait()    // prover drains, result pump resolves everything
	telemetry.Info("service", "gateway.drained")
}

// Resume restarts a drained gateway with a fresh admission queue and a
// new prover run. Job history (terminal records) is retained.
func (g *Gateway) Resume() {
	if !g.draining.Load() {
		return
	}
	g.start()
	g.draining.Store(false)
	telemetry.Info("service", "gateway.resumed")
}
