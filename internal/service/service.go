package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"batchzk/internal/core"
	"batchzk/internal/faults"
	"batchzk/internal/field"
	"batchzk/internal/obs"
	"batchzk/internal/protocol"
	"batchzk/internal/telemetry"
)

// Prover is the proving backend the gateway hands jobs to.
// core.BatchProver and core.ShardedProver both satisfy it.
type Prover interface {
	Run(jobs <-chan core.Job) <-chan core.Result
	Stats() core.Stats
	SetResilience(r *core.Resilience)
	Quarantined() []core.QuarantinedJob
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

// Config shapes the gateway. Zero values get the batcher defaults plus:
// JobDeadline 0 (off), RetryBudget 1, MaxBody 1 MiB.
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

	// JobDeadline bounds a job's wall time inside the prover pipeline
	// (installed into the prover's Resilience). Zero disables it.
	JobDeadline time.Duration
	// RetryBudget is how many times the gateway re-submits a job whose
	// quarantine was caused by a transient injected fault (a slow or
	// flaky shard), on top of the prover's own per-stage retries.
	// Negative disables gateway retries; zero means the default (1).
	RetryBudget int
	// MaxBody caps the HTTP request body in bytes (default 1 MiB);
	// larger submissions get 413.
	MaxBody int64
	// StreamingCommit is ignored. It used to route the prover's commit
	// and opening stages through the out-of-core path; that is now the
	// only path (see core.BatchProver.SetStreamingCommit).
	StreamingCommit bool
	// Resilience, when set, is the base failure-handling configuration
	// installed on the prover (JobDeadline above is applied on top).
	// Nil means core.DefaultResilience.
	Resilience *core.Resilience
	// Telemetry overrides the process-wide sink for trace minting.
	Telemetry *telemetry.Sink
}

func (c Config) withDefaults() Config {
	if c.RetryBudget == 0 {
		c.RetryBudget = 1
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
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
	Retries   int               `json:"retries"`
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
	tenant   string
	priority int
	trace    telemetry.TraceID
	public   []field.Element
	secret   []field.Element

	mu        sync.Mutex
	seq       int // internal id of the current prover attempt
	status    Status
	proof     *protocol.Proof
	errMsg    string
	retries   int
	submitted time.Time
	finished  time.Time
	done      chan struct{}
}

func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID: j.extID, Tenant: j.tenant, Priority: j.priority,
		Status: j.status, TraceID: j.trace, Retries: j.retries,
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
	Retries          int64   `json:"retries"`
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

	// in feeds the prover's current Run; inMu guards the close against
	// late retry re-submissions. It is unbuffered, so the only jobs
	// outside the priority queue and the prover are the pump's current
	// Take: priority inversion is bounded by MaxBatch jobs.
	inMu     sync.RWMutex
	in       chan core.Job
	inClosed bool

	batcher  *Batcher[*job]
	draining atomic.Bool
	pumps    sync.WaitGroup

	completed atomic.Int64
	failed    atomic.Int64
	timeouts  atomic.Int64
	retries   atomic.Int64

	subMu   sync.Mutex
	subs    map[int]chan Event
	subSeq  int
	dropped atomic.Int64

	// afterStreamFlush, when set (by tests, before the handler serves),
	// runs in each /v1/stream handler right after the header flush.
	afterStreamFlush func()
}

// NewGateway builds and starts a gateway over prover. The prover must
// be idle (no Run in progress); the gateway installs its resilience
// configuration and owns the prover's job stream from here on.
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
	res := g.cfg.Resilience
	if res == nil {
		res = core.DefaultResilience()
	}
	if g.cfg.JobDeadline > 0 {
		res.JobDeadline = g.cfg.JobDeadline
	}
	prover.SetResilience(res)
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
	g.inMu.Lock()
	g.in = make(chan core.Job)
	g.inClosed = false
	g.inMu.Unlock()
	out := g.prover.Run(g.in)
	g.pumps.Add(2)
	go g.batchPump()
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
	obs.Debug("service", "job.accepted", obs.Job(seq), obs.Trace(trace))
	return ack, nil
}

// batchPump hands queued jobs to the prover's job stream as fast as
// the prover takes them, until a drain has emptied the queue.
func (g *Gateway) batchPump() {
	defer g.pumps.Done()
	for {
		batch, ok := g.batcher.Take()
		if !ok {
			break
		}
		for _, j := range batch {
			j.mu.Lock()
			j.status = StatusProving
			seq := j.seq
			j.mu.Unlock()
			g.sendJob(core.Job{ID: seq, Public: j.public, Secret: j.secret, Trace: j.trace})
		}
	}
	g.closeIn()
}

// sendJob delivers one job to the prover's current run. It returns
// false if the stream is already closed (a retry that lost the race
// with drain); the caller resolves the job instead of losing it.
func (g *Gateway) sendJob(cj core.Job) bool {
	g.inMu.RLock()
	defer g.inMu.RUnlock()
	if g.inClosed {
		return false
	}
	g.in <- cj
	return true
}

func (g *Gateway) closeIn() {
	g.inMu.Lock()
	defer g.inMu.Unlock()
	if !g.inClosed {
		g.inClosed = true
		close(g.in)
	}
}

// resultPump resolves prover results into terminal job states, retrying
// transient quarantines within the budget.
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
			obs.Warn("service", "result.orphaned", obs.Job(r.ID))
			continue
		}
		if r.Err == nil {
			g.resolve(j, StatusDone, r.Proof, "")
			continue
		}
		if g.shouldRetry(j, r.Err) {
			continue
		}
		if errors.Is(r.Err, core.ErrJobDeadline) {
			g.resolve(j, StatusTimeout, nil, r.Err.Error())
		} else {
			g.resolve(j, StatusFailed, nil, r.Err.Error())
		}
	}
}

// shouldRetry re-submits a quarantined job when the failure was a
// transient injected fault (flaky kernel, stalled transfer, worker
// panic — a shard having a bad day) and the budget allows. Permanent
// faults (memory corruption), blown deadlines, and real witness errors
// are terminal: retrying them only delays the verdict the client gets.
func (g *Gateway) shouldRetry(j *job, err error) bool {
	if errors.Is(err, core.ErrJobDeadline) {
		return false
	}
	var f *faults.Fault
	if !errors.As(err, &f) || f.Permanent() {
		return false
	}
	j.mu.Lock()
	if j.retries >= g.cfg.RetryBudget {
		j.mu.Unlock()
		return false
	}
	j.retries++
	j.mu.Unlock()

	g.mu.Lock()
	g.seq++
	seq := g.seq
	g.byID[seq] = j
	g.mu.Unlock()
	j.mu.Lock()
	j.seq = seq
	j.mu.Unlock()
	g.retries.Add(1)
	obs.Warn("service", "job.retry", obs.Job(seq), obs.Trace(j.trace), obs.Err(err))

	// Re-submit from a fresh goroutine: the result pump must keep
	// draining prover output, or a full pipeline would deadlock against
	// this send. The job keeps its trace id — one timeline across the
	// retry — and a send that loses the race with drain resolves the
	// job instead of dropping it.
	g.pumps.Add(1)
	go func() {
		defer g.pumps.Done()
		if !g.sendJob(core.Job{ID: seq, Public: j.public, Secret: j.secret, Trace: j.trace}) {
			g.mu.Lock()
			delete(g.byID, seq)
			g.mu.Unlock()
			g.resolve(j, StatusFailed, nil, fmt.Sprintf("retry abandoned by drain: %v", err))
		}
	}()
	return true
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
// draining, and the process-wide health engine (when enabled) agrees.
func (g *Gateway) Ready() (bool, string) {
	if g.draining.Load() {
		return false, "draining"
	}
	return obs.Active().Ready()
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
		Retries:          g.retries.Load(),
		Batches:          bs.Batches,
		BatchOccupancy:   bs.Occupancy(g.batcher.Config().MaxBatch),
		QueueDepth:       bs.QueueDepth,
		Draining:         g.draining.Load(),
	}
}

// ProverStats exposes the backend prover's counters.
func (g *Gateway) ProverStats() core.Stats { return g.prover.Stats() }

// Quarantined exposes the backend prover's dead-letter list.
func (g *Gateway) Quarantined() []core.QuarantinedJob { return g.prover.Quarantined() }

// Drain gracefully stops the gateway: admission closes (new submissions
// get ErrDraining / 503), every accepted job is flushed, proven, and
// resolved, then the prover's stream is closed. Blocks until the last
// result lands. The gateway can be restarted with Resume.
func (g *Gateway) Drain() {
	if g.draining.Swap(true) {
		return
	}
	obs.Info("service", "gateway.draining")
	g.batcher.Drain() // batch pump takes the rest, then closes in
	g.pumps.Wait()    // prover drains, result pump resolves everything
	obs.Info("service", "gateway.drained")
}

// Resume restarts a drained gateway with a fresh admission queue and a
// new prover run. Job history (terminal records) is retained.
func (g *Gateway) Resume() {
	if !g.draining.Load() {
		return
	}
	g.start()
	g.draining.Store(false)
	obs.Info("service", "gateway.resumed")
}
