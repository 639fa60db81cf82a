package core

import (
	"testing"

	"batchzk/internal/telemetry"
)

// The flight-recorder integration contract: a job keeps exactly one
// coherent timeline across the pipeline, a failed job included.

func TestFlightTimelineCleanRun(t *testing.T) {
	c, p := testCircuit(t)
	bp, err := NewBatchProver(c, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink(telemetry.Config{})
	bp.SetTelemetry(sink)

	results := bp.ProveBatch(testJobs(6))
	fr := sink.FlightRecorder()
	tls := fr.Timelines()
	if len(tls) != 6 {
		t.Fatalf("recorded %d timelines for 6 jobs", len(tls))
	}
	seen := map[telemetry.TraceID]bool{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.ID, r.Err)
		}
		if r.Trace == 0 {
			t.Fatalf("job %d result carries no trace id", r.ID)
		}
		if seen[r.Trace] {
			t.Fatalf("trace id %d reused across jobs", r.Trace)
		}
		seen[r.Trace] = true
		tl, ok := fr.Timeline(r.Trace)
		if !ok {
			t.Fatalf("job %d: no timeline for trace %d", r.ID, r.Trace)
		}
		if tl.JobID != r.ID || !tl.Done || tl.Error != "" {
			t.Fatalf("job %d timeline: %+v", r.ID, tl)
		}
		if len(tl.Stages) != len(StageNames) {
			t.Fatalf("job %d recorded %d stages, want %d", r.ID, len(tl.Stages), len(StageNames))
		}
		for i, st := range tl.Stages {
			if st.Stage != StageNames[i] || st.DurNs <= 0 {
				t.Fatalf("job %d stage %d: %+v", r.ID, i, st)
			}
		}
		if tl.EmitNs < tl.StartNs || tl.StartNs < tl.SubmitNs {
			t.Fatalf("job %d timeline out of order: %+v", r.ID, tl)
		}
	}
	if jobs, completed, failed := countJobs(tls); jobs != 6 || completed != 6 || failed != 0 {
		t.Fatalf("jobs %d completed %d failed %d", jobs, completed, failed)
	}
}

// countJobs counts the recorded timelines, and the finished ones by
// outcome.
func countJobs(tls []telemetry.JobTimeline) (jobs, completed, failed int) {
	for _, tl := range tls {
		jobs++
		switch {
		case !tl.Done:
		case tl.Error == "":
			completed++
		default:
			failed++
		}
	}
	return jobs, completed, failed
}

// TestFlightTimelineRecordsFailure: a job whose stage panics keeps one
// closed timeline: the stages up to and including the failing one, and
// the error chain its Result carries.
func TestFlightTimelineRecordsFailure(t *testing.T) {
	c, p := testCircuit(t)
	bp, err := NewBatchProver(c, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	bp.stageHook = panicAt(2, 0)
	sink := telemetry.NewSink(telemetry.Config{})
	bp.SetTelemetry(sink)

	results := bp.ProveBatch(testJobs(2))
	if results[0].Err == nil || results[1].Err != nil {
		t.Fatalf("results: %v / %v, want job 0 failed, job 1 proven", results[0].Err, results[1].Err)
	}
	fr := sink.FlightRecorder()
	tl, ok := fr.Timeline(results[0].Trace)
	if !ok {
		t.Fatal("failed job lost its timeline")
	}
	if !tl.Done || tl.Error != results[0].Err.Error() {
		t.Fatalf("failed timeline not closed with the result's error: %+v", tl)
	}
	// The panicking stage still leaves its record; the stages the job
	// skipped on its way out do not.
	if len(tl.Stages) != 3 || tl.Stages[2].Stage != StageNames[2] {
		t.Fatalf("recorded stages: %+v", tl.Stages)
	}
	if other, _ := fr.Timeline(results[1].Trace); other.Error != "" || len(other.Stages) != len(StageNames) {
		t.Fatalf("healthy job timeline: %+v", other)
	}
	if jobs, completed, failed := countJobs(fr.Timelines()); jobs != 2 || completed != 1 || failed != 1 {
		t.Fatalf("jobs %d completed %d failed %d", jobs, completed, failed)
	}
}

func TestFlightTimelineRecordsShard(t *testing.T) {
	c, p := testCircuit(t)
	sp, err := NewShardedProver(c, p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink(telemetry.Config{})
	sp.SetTelemetry(sink)

	results := sp.ProveBatch(testJobs(8))
	fr := sink.FlightRecorder()
	shardsSeen := map[int]int{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.ID, r.Err)
		}
		tl, ok := fr.Timeline(r.Trace)
		if !ok {
			t.Fatalf("job %d: no timeline", r.ID)
		}
		if tl.Shard < 0 || tl.Shard > 1 {
			t.Fatalf("job %d assigned to shard %d", r.ID, tl.Shard)
		}
		shardsSeen[tl.Shard]++
		if !tl.Done || len(tl.Stages) != len(StageNames) {
			t.Fatalf("job %d timeline: %+v", r.ID, tl)
		}
	}
	if len(shardsSeen) != 2 {
		t.Fatalf("8 jobs over 2 shards landed on %v", shardsSeen)
	}
}

// TestFlightTraceIDPropagatesFromCaller: a job tagged by the caller (the
// service layer propagating an external trace id) keeps that id through
// the pipeline instead of being re-minted.
func TestFlightTraceIDPropagatesFromCaller(t *testing.T) {
	c, p := testCircuit(t)
	bp, err := NewBatchProver(c, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink(telemetry.Config{})
	bp.SetTelemetry(sink)

	jobs := testJobs(1)
	jobs[0].Trace = 12345
	results := bp.ProveBatch(jobs)
	if results[0].Trace != 12345 {
		t.Fatalf("caller's trace id replaced: %d", results[0].Trace)
	}
	tl, ok := sink.FlightRecorder().Timeline(12345)
	if !ok || !tl.Done {
		t.Fatalf("caller-tagged timeline missing: %+v", tl)
	}
}

// TestFlightDisabledZeroOverheadPath: with no sink, jobs still prove and
// results carry no trace ids — the recording path is fully nil-safe.
func TestFlightDisabledZeroOverheadPath(t *testing.T) {
	c, p := testCircuit(t)
	bp, err := NewBatchProver(c, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	results := bp.ProveBatch(testJobs(2))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.ID, r.Err)
		}
		if r.Trace != 0 {
			t.Fatalf("telemetry disabled but job %d carries trace %d", r.ID, r.Trace)
		}
	}
}
