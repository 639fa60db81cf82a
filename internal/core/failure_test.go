package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"batchzk/internal/field"
	"batchzk/internal/protocol"
	"batchzk/internal/telemetry"
)

// The failure contract (failure.go), driven through the test-only stage
// hook: a panicking or erroring stage fails its job only, results keep
// submission order, a per-job deadline cuts off a job that stalls, and
// the counters record each event. Stalls advance a test clock instead of
// sleeping, so no outcome here depends on scheduling.

func testJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: i, Public: field.RandVector(2), Secret: field.RandVector(2)}
	}
	return jobs
}

// panicAt returns a stage hook that panics when job reaches stage.
func panicAt(stage, job int) func(int, int) {
	return func(s, j int) {
		if s == stage && j == job {
			panic(fmt.Sprintf("injected panic in job %d", j))
		}
	}
}

// testClock is a prover clock that moves only when the test says so.
type testClock struct{ ns atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	c.ns.Store(int64(time.Hour))
	return c
}

func (c *testClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// stallAt returns a stage hook under which job spends d in stage, as
// far as the prover's clock can tell.
func stallAt(stage, job int, clk *testClock, d time.Duration) func(int, int) {
	return func(s, j int) {
		if s == stage && j == job {
			clk.advance(d)
		}
	}
}

// deadlineProver is a depth-1 prover on its own test clock, so a job
// enters the pipeline only after the one before it has left: a stall
// in one job never ages another.
func deadlineProver(t *testing.T, deadline time.Duration) (*BatchProver, *testClock) {
	t.Helper()
	c, p := testCircuit(t)
	bp, err := NewBatchProver(c, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	clk := newTestClock()
	bp.now = clk.now
	bp.SetJobDeadline(deadline)
	return bp, clk
}

func marshalProof(t *testing.T, p *protocol.Proof) []byte {
	t.Helper()
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOrderingBitIdenticalUnderFaults: a stage panic in one job, on a
// single and on a sharded prover, leaves every other result in
// submission order and byte-identical to the sequential reference
// prover, and is counted once as a recovered panic and once as a
// failure.
func TestOrderingBitIdenticalUnderFaults(t *testing.T) {
	const n, bad = 10, 4
	c, p := testCircuit(t)
	jobs := testJobs(n)
	want := make([][]byte, n)
	for i, j := range jobs {
		ref, err := protocol.Prove(c, p, j.Public, j.Secret)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = marshalProof(t, ref)
	}
	single, err := NewBatchProver(c, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	single.stageHook = panicAt(1, bad)
	sharded, err := NewShardedProver(c, p, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range sharded.shards {
		shard.stageHook = panicAt(1, bad)
	}
	for _, tc := range []struct {
		name   string
		prover interface {
			ProveBatch([]Job) []Result
			Stats() Stats
		}
	}{{"single", single}, {"sharded", sharded}} {
		t.Run(tc.name, func(t *testing.T) {
			results := tc.prover.ProveBatch(jobs)
			if len(results) != n {
				t.Fatalf("%d results for %d jobs", len(results), n)
			}
			for i, r := range results {
				if r.ID != i {
					t.Fatalf("result %d carries job %d: submission order broken", i, r.ID)
				}
				if i == bad {
					if r.Err == nil || !strings.Contains(r.Err.Error(), "failed at stage gate-sumcheck") ||
						!strings.Contains(r.Err.Error(), "injected panic") {
						t.Fatalf("panicking job: err %v", r.Err)
					}
					continue
				}
				if r.Err != nil {
					t.Fatalf("job %d failed beside the panicking one: %v", i, r.Err)
				}
				if !bytes.Equal(marshalProof(t, r.Proof), want[i]) {
					t.Fatalf("job %d: proof bytes differ from the sequential prover", i)
				}
			}
			st := tc.prover.Stats()
			if st.PanicsRecovered != 1 || st.Failed != 1 || st.Completed != n-1 || st.Retries != 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

func TestNonFaultPanicBecomesError(t *testing.T) {
	c, p := testCircuit(t)
	bp, err := NewBatchProver(c, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// No hook at all: a witness of the wrong size fails inside the
	// protocol layer, and that failure must stay this job's.
	jobs := testJobs(2)
	jobs[0].Witness = make([]field.Element, 1)
	results := bp.ProveBatch(jobs)
	if results[0].Err == nil {
		t.Fatal("malformed witness produced a proof")
	}
	if !strings.Contains(results[0].Err.Error(), "failed at stage commit") {
		t.Fatalf("error does not name the failing stage: %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("healthy job failed: %v", results[1].Err)
	}
	if st := bp.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStragglerBlowsDeadline: a job that stalls in one stage past its
// deadline is cut off with ErrJobDeadline as the next stage begins; the
// job behind it is untouched.
func TestStragglerBlowsDeadline(t *testing.T) {
	bp, clk := deadlineProver(t, time.Second)
	bp.stageHook = stallAt(1, 0, clk, 2*time.Second)
	results := bp.ProveBatch(testJobs(2))
	if !errors.Is(results[0].Err, ErrJobDeadline) {
		t.Fatalf("stalled job: err %v, want ErrJobDeadline in the chain", results[0].Err)
	}
	if !strings.Contains(results[0].Err.Error(), "failed at stage linear-sumcheck") {
		t.Fatalf("deadline not checked at the next stage entry: %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("job behind the straggler failed: %v", results[1].Err)
	}
	if st := bp.Stats(); st.Timeouts != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStragglerWithinDeadlineRecovers(t *testing.T) {
	bp, clk := deadlineProver(t, time.Second)
	bp.stageHook = stallAt(2, 0, clk, 500*time.Millisecond)
	for _, r := range bp.ProveBatch(testJobs(2)) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.ID, r.Err)
		}
	}
	if st := bp.Stats(); st.Timeouts != 0 || st.Completed != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// slowShardProver is a two-shard depth-1 prover whose shard 1 runs on
// its own test clock, stalled by d when job 1 (its first job) enters the
// commit stage.
func slowShardProver(t *testing.T, deadline, d time.Duration) *ShardedProver {
	t.Helper()
	c, p := testCircuit(t)
	sp, err := NewShardedProver(c, p, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp.SetJobDeadline(deadline)
	for _, shard := range sp.shards {
		shard.now = newTestClock().now
	}
	slow := newTestClock()
	sp.shards[1].now = slow.now
	sp.shards[1].stageHook = stallAt(0, 1, slow, d)
	return sp
}

// TestSlowShardBlowsDeadline: SetJobDeadline reaches every shard; a job
// stalled on a slow shard past the deadline is cut off, and the merged
// stream keeps submission order around it.
func TestSlowShardBlowsDeadline(t *testing.T) {
	sp := slowShardProver(t, time.Second, 2*time.Second)
	results := sp.ProveBatch(testJobs(4))
	for i, r := range results {
		if r.ID != i {
			t.Fatalf("result %d carries job %d", i, r.ID)
		}
		if timedOut := errors.Is(r.Err, ErrJobDeadline); timedOut != (i == 1) || (i != 1 && r.Err != nil) {
			t.Fatalf("job %d: err %v", i, r.Err)
		}
	}
	if st := sp.Stats(); st.Timeouts != 1 || st.Failed != 1 || st.Completed != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSlowShardRecoversUnderDeadline(t *testing.T) {
	sp := slowShardProver(t, time.Second, 500*time.Millisecond)
	for _, r := range sp.ProveBatch(testJobs(4)) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.ID, r.Err)
		}
	}
	if st := sp.Stats(); st.Timeouts != 0 || st.Completed != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestResilienceTelemetryCounters: the failure counters in Stats and
// their telemetry mirrors agree, one panic and one deadline kill apart.
func TestResilienceTelemetryCounters(t *testing.T) {
	bp, clk := deadlineProver(t, time.Second)
	stall := stallAt(0, 1, clk, 2*time.Second)
	bp.stageHook = func(stage, job int) {
		panicAt(1, 0)(stage, job)
		stall(stage, job)
	}
	sink := telemetry.NewSink(telemetry.Config{})
	bp.SetTelemetry(sink)
	bp.ProveBatch(testJobs(3))
	st := bp.Stats()
	if st.Failed != 2 || st.Timeouts != 1 || st.PanicsRecovered != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	for name, want := range map[string]int64{
		"core/jobs/failed":            st.Failed,
		"core/jobs/timeouts":          st.Timeouts,
		"sched/core/panics_recovered": st.PanicsRecovered,
		"core/jobs/completed":         st.Completed,
	} {
		if got := sink.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
}

// TestChaosSoak: a stream mixing stage panics, malformed witnesses and
// a wrong-length public input fails exactly those jobs, leaks no
// goroutine, and every other proof verifies while a tampered one does
// not.
func TestChaosSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	c, p := testCircuit(t)
	bp, err := NewBatchProver(c, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink(telemetry.Config{})
	bp.SetTelemetry(sink)
	jobs := testJobs(24)
	wantFailed := map[int]bool{}
	panics := map[int]bool{}
	for id := 2; id < len(jobs); id += 5 {
		panics[id], wantFailed[id] = true, true
	}
	bp.stageHook = func(stage, job int) {
		if panics[job] && stage == job%len(StageNames) {
			panic("soak panic")
		}
	}
	for _, id := range []int{9, 19} {
		jobs[id].Witness = make([]field.Element, 1)
		wantFailed[id] = true
	}
	jobs[15].Public = field.RandVector(3)
	wantFailed[15] = true

	results := bp.ProveBatch(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("lost results: %d of %d", len(results), len(jobs))
	}
	var survivor *Result
	for i := range results {
		r := &results[i]
		if r.ID != i {
			t.Fatalf("result %d carries job %d", i, r.ID)
		}
		if (r.Err != nil) != wantFailed[i] {
			t.Fatalf("job %d: err %v, want failed=%v", i, r.Err, wantFailed[i])
		}
		if r.Err != nil {
			continue
		}
		if err := bp.Verify(jobs[i].Public, r.Proof); err != nil {
			t.Fatalf("job %d does not verify: %v", i, err)
		}
		survivor = r
	}
	st := bp.Stats()
	if st.Failed != int64(len(wantFailed)) || st.Completed != int64(len(jobs)-len(wantFailed)) || st.PanicsRecovered != int64(len(panics)) {
		t.Fatalf("stats: %+v", st)
	}
	if got := sink.Counter("sched/core/panics_recovered").Value(); got != st.PanicsRecovered {
		t.Fatalf("panics counter %d != stats %d", got, st.PanicsRecovered)
	}

	// The stage goroutines are on their way out once the results are;
	// give them the chance to finish.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}

	tampered := *survivor.Proof
	one := field.NewElement(1)
	tampered.OTau.Add(&tampered.OTau, &one)
	if err := bp.Verify(jobs[survivor.ID].Public, &tampered); err == nil {
		t.Fatal("tampered proof verified")
	}
}
