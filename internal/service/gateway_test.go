package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/protocol"
	"batchzk/internal/telemetry"
)

// newTestProver builds a small sharded prover for gateway tests.
func newTestProver(t *testing.T, shards int) (*core.ShardedProver, *circuit.Circuit) {
	t.Helper()
	c, err := circuit.RandomCircuit(32, 2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := protocol.Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := core.NewShardedProver(c, p, shards, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sp, c
}

// stallProver is a stub Prover that takes no job until releaseJobs,
// then records the internal ids in the order it takes them and answers
// each with an empty successful result.
type stallProver struct {
	release chan struct{}
	once    sync.Once

	mu    sync.Mutex
	taken []int
}

func newStallProver() *stallProver { return &stallProver{release: make(chan struct{})} }

func (p *stallProver) releaseJobs() { p.once.Do(func() { close(p.release) }) }

func (p *stallProver) takenIDs() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.taken...)
}

func (p *stallProver) Run(jobs <-chan core.Job) <-chan core.Result {
	out := make(chan core.Result)
	go func() {
		defer close(out)
		<-p.release
		for j := range jobs {
			p.mu.Lock()
			p.taken = append(p.taken, j.ID)
			p.mu.Unlock()
			out <- core.Result{ID: j.ID, Trace: j.Trace}
		}
	}()
	return out
}

func (p *stallProver) Stats() core.Stats                             { return core.Stats{} }
func (p *stallProver) Verify([]field.Element, *protocol.Proof) error { return nil }

// scriptedProver wraps a real prover and rewrites its result stream on
// cue: the result of job hold waits until release is closed, and the
// result of job timeout becomes a deadline error, as the prover's own
// SetJobDeadline reports one. It records the internal ids it is handed.
type scriptedProver struct {
	Prover
	hold, timeout int
	release       chan struct{}

	mu    sync.Mutex
	taken []int
}

func newScriptedProver(inner Prover, hold, timeout int) *scriptedProver {
	return &scriptedProver{Prover: inner, hold: hold, timeout: timeout, release: make(chan struct{})}
}

func (p *scriptedProver) takenIDs() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.taken...)
}

func (p *scriptedProver) Run(jobs <-chan core.Job) <-chan core.Result {
	in := make(chan core.Job)
	go func() {
		defer close(in)
		for j := range jobs {
			p.mu.Lock()
			p.taken = append(p.taken, j.ID)
			p.mu.Unlock()
			in <- j
		}
	}()
	inner := p.Prover.Run(in)
	out := make(chan core.Result)
	go func() {
		defer close(out)
		for r := range inner {
			if r.ID == p.hold {
				<-p.release
			}
			if r.ID == p.timeout {
				r = core.Result{ID: r.ID, Trace: r.Trace, Err: fmt.Errorf("core: job %d failed at stage commit: %w", r.ID, core.ErrJobDeadline)}
			}
			out <- r
		}
	}()
	return out
}

func submitN(t *testing.T, gw *Gateway, tenant string, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		info, err := gw.Submit(tenant, 0, field.RandVector(2), field.RandVector(2), 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	return ids
}

func waitAll(t *testing.T, gw *Gateway, ids []string) []JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	infos := make([]JobInfo, 0, len(ids))
	for _, id := range ids {
		info, ok := gw.WaitJob(ctx, id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if !info.Status.Terminal() {
			t.Fatalf("job %s still %s after wait", id, info.Status)
		}
		infos = append(infos, info)
	}
	return infos
}

// End-to-end: multi-tenant traffic through a sharded prover; every job
// completes, every proof verifies, batching and trace ids are live.
func TestGatewayEndToEnd(t *testing.T) {
	sp, _ := newTestProver(t, 2)
	sink := telemetry.NewSink(telemetry.Config{})
	sp.SetTelemetry(sink)
	gw, err := NewGateway(sp, Config{MaxBatch: 4, MaxWait: time.Millisecond, Telemetry: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Drain()

	var ids []string
	for tenant := 0; tenant < 3; tenant++ {
		ids = append(ids, submitN(t, gw, fmt.Sprintf("t%d", tenant), 6)...)
	}
	for _, info := range waitAll(t, gw, ids) {
		if info.Status != StatusDone {
			t.Errorf("job %s: %s (%s)", info.ID, info.Status, info.Err)
		}
		if info.TraceID == 0 {
			t.Errorf("job %s has no trace id despite live telemetry", info.ID)
		}
		if info.LatencyNs <= 0 {
			t.Errorf("job %s reported non-positive latency", info.ID)
		}
	}
	for _, id := range ids {
		if err := gw.VerifyJob(id); err != nil {
			t.Errorf("verify %s: %v", id, err)
		}
	}
	gs := gw.Stats()
	if gs.Completed != int64(len(ids)) || gs.Accepted != int64(len(ids)) {
		t.Errorf("stats completed=%d accepted=%d, want %d", gs.Completed, gs.Accepted, len(ids))
	}
	if gs.Batches == 0 || gs.BatchOccupancy <= 0 || gs.BatchOccupancy > 1 {
		t.Errorf("implausible batching stats: %+v", gs)
	}
	// Flight recorder saw every job: admission minted the trace.
	if got := len(sink.FlightRecorder().Timelines()); got < len(ids) {
		t.Errorf("flight recorder has %d timelines, want ≥ %d", got, len(ids))
	}
}

// The deadline path: a job the prover cuts off with ErrJobDeadline
// surfaces as StatusTimeout, is not handed to the prover again, and a
// healthy job behind it still completes.
func TestGatewaySlowShardDeadline(t *testing.T) {
	sp, _ := newTestProver(t, 1)
	prover := newScriptedProver(sp, -1, 1) // internal id of the first job
	gw, err := NewGateway(prover, Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Drain()

	info, err := gw.Submit("t0", 0, field.RandVector(2), field.RandVector(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitAll(t, gw, []string{info.ID})[0]
	if final.Status != StatusTimeout || final.Err == "" {
		t.Fatalf("deadline kill: status=%s (%q), want timeout with its error", final.Status, final.Err)
	}
	info2, err := gw.Submit("t0", 0, field.RandVector(2), field.RandVector(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitAll(t, gw, []string{info2.ID})[0]; got.Status != StatusDone {
		t.Errorf("follow-up job: %s (%s), want done", got.Status, got.Err)
	}
	if gs := gw.Stats(); gs.Timeouts != 1 || gs.Completed != 1 || gs.Failed != 0 {
		t.Errorf("gateway stats %+v, want 1 timeout and 1 completed", gs)
	}
	if got := prover.takenIDs(); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("prover was handed jobs %v, want [1 2]: a deadline kill is not retried", got)
	}
}

// Drain resolves every in-flight job, rejects new work, and Resume
// restores service; nothing is lost across the cycle.
func TestGatewayDrainResume(t *testing.T) {
	sp, _ := newTestProver(t, 2)
	gw, err := NewGateway(sp, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitN(t, gw, "t0", 8)
	gw.Drain()

	// Every accepted job reached a terminal state during the drain.
	for _, id := range ids {
		info, ok := gw.Job(id)
		if !ok || !info.Status.Terminal() {
			t.Fatalf("job %s not terminal after drain", id)
		}
		if info.Status != StatusDone {
			t.Errorf("job %s: %s (%s)", id, info.Status, info.Err)
		}
	}
	if _, err := gw.Submit("t0", 0, field.RandVector(2), field.RandVector(2), 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while drained: %v, want ErrDraining", err)
	}
	if ready, reason := gw.Ready(); ready || reason != "draining" {
		t.Fatalf("drained gateway reports ready=%v (%s)", ready, reason)
	}

	gw.Resume()
	defer gw.Drain()
	ids2 := submitN(t, gw, "t0", 4)
	for _, info := range waitAll(t, gw, ids2) {
		if info.Status != StatusDone {
			t.Errorf("post-resume job %s: %s (%s)", info.ID, info.Status, info.Err)
		}
	}
	// History from before the drain is still queryable.
	if _, ok := gw.Job(ids[0]); !ok {
		t.Error("pre-drain job history lost across resume")
	}
}

// The event stream delivers exactly one terminal event per job.
func TestGatewayStreamExactlyOnce(t *testing.T) {
	sp, _ := newTestProver(t, 1)
	gw, err := NewGateway(sp, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := gw.Subscribe()
	defer cancel()
	ids := submitN(t, gw, "t0", 6)
	waitAll(t, gw, ids)
	gw.Drain()

	counts := make(map[string]int)
	timeout := time.After(5 * time.Second)
	for n := 0; n < len(ids); {
		select {
		case ev := <-events:
			counts[ev.JobID]++
			n++
		case <-timeout:
			t.Fatalf("stream delivered %d events, want %d", n, len(ids))
		}
	}
	for _, id := range ids {
		if counts[id] != 1 {
			t.Errorf("job %s emitted %d terminal events, want 1", id, counts[id])
		}
	}
	if gw.DroppedEvents() != 0 {
		t.Errorf("%d events dropped with an attentive subscriber", gw.DroppedEvents())
	}
}

// Priority inversion is bounded by one hand-off: while the prover is
// stalled, the pump holds at most one Take (MaxBatch jobs) outside the
// priority queue. Once the prover takes jobs again, every high-priority
// job reaches it before any low-priority job still in the queue.
func TestGatewayPriorityOneHandOff(t *testing.T) {
	const maxBatch, lows, highs = 2, 6, 4
	sp := newStallProver()
	gw, err := NewGateway(sp, Config{MaxBatch: maxBatch, Priorities: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Drain()
	defer sp.releaseJobs()

	submit := func(priority int) {
		t.Helper()
		if _, err := gw.Submit("t0", priority, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < lows; i++ {
		submit(1)
	}
	// Wait for the pump's first Take; it then blocks handing its first
	// job to the stalled prover, so the hand-off cannot grow.
	for deadline := time.Now().Add(10 * time.Second); gw.Stats().Batches == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the pump never took from the queue")
		}
	}
	for i := 0; i < highs; i++ {
		submit(0)
	}
	st := gw.Stats()
	handed := int(st.Accepted) - st.QueueDepth
	if handed < 1 || handed > maxBatch {
		t.Fatalf("%d jobs left the queue for a stalled prover, want 1..%d", handed, maxBatch)
	}
	sp.releaseJobs()
	gw.Drain()

	// Internal ids follow submission: lows are 1..6, highs 7..10.
	var want []int
	for id := 1; id <= handed; id++ {
		want = append(want, id)
	}
	for id := lows + 1; id <= lows+highs; id++ {
		want = append(want, id)
	}
	for id := handed + 1; id <= lows; id++ {
		want = append(want, id)
	}
	if got := sp.takenIDs(); !slices.Equal(got, want) {
		t.Fatalf("prover took jobs %v, want %v (%d handed over before the high-priority jobs)", got, want, handed)
	}
}
