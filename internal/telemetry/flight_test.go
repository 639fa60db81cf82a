package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestTraceIDContext(t *testing.T) {
	if got := TraceIDFrom(context.Background()); got != 0 {
		t.Fatalf("empty context carries trace id %d", got)
	}
	if got := TraceIDFrom(nil); got != 0 {
		t.Fatalf("nil context carries trace id %d", got)
	}
	ctx := WithTraceID(context.Background(), 42)
	if got := TraceIDFrom(ctx); got != 42 {
		t.Fatalf("TraceIDFrom = %d, want 42", got)
	}
}

func TestFlightRecorderLifecycle(t *testing.T) {
	f := NewFlightRecorder(0)

	id := f.Submit(0, 7, -1)
	if id == 0 {
		t.Fatal("Submit(0, ...) did not mint a trace id")
	}
	// Re-submission with the minted id (a sharded hand-off) keeps one
	// timeline and records the shard without resetting the submit stamp.
	tl0, _ := f.Timeline(id)
	if got := f.Submit(id, 7, 2); got != id {
		t.Fatalf("re-Submit changed the trace id: %d -> %d", id, got)
	}
	tl, ok := f.Timeline(id)
	if !ok {
		t.Fatal("timeline lost after re-submit")
	}
	if tl.Shard != 2 || tl.SubmitNs != tl0.SubmitNs || tl.JobID != 7 {
		t.Fatalf("re-submit corrupted the timeline: %+v", tl)
	}

	f.Stage(id, "commit", 100, 50)
	f.Stage(id, "opening", 200, 80)
	f.Emit(id, "")

	tl, _ = f.Timeline(id)
	if !tl.Done || tl.Error != "" || len(tl.Stages) != 2 {
		t.Fatalf("timeline: %+v", tl)
	}
	// The first stage stamps the job's StartNs and admission queue wait.
	if tl.StartNs != 100 || tl.QueueWaitNs != 100-tl.SubmitNs {
		t.Fatalf("admission stamps: start %d wait %d submit %d", tl.StartNs, tl.QueueWaitNs, tl.SubmitNs)
	}
	// A later stage's queue wait is the gap since the previous one ended.
	if tl.Stages[0].QueueWaitNs != 0 {
		t.Fatalf("first stage queue wait %d, want 0 (admission is the job's)", tl.Stages[0].QueueWaitNs)
	}
	if s := tl.Stages[1]; s.Stage != "opening" || s.StartNs != 200 || s.DurNs != 80 || s.QueueWaitNs != 200-(100+50) {
		t.Fatalf("stage record: %+v", tl.Stages[1])
	}
	if tl.E2ENs() <= 0 {
		t.Fatalf("finished timeline has e2e %d", tl.E2ENs())
	}
}

func TestFlightRecorderFailedJob(t *testing.T) {
	f := NewFlightRecorder(0)
	id := f.Submit(0, 0, -1)
	f.Stage(id, "commit", 1, 1)
	f.Emit(id, "core: job 0 failed at stage commit: bad witness")
	tl, _ := f.Timeline(id)
	if !tl.Done || len(tl.Stages) != 1 {
		t.Fatalf("failed job's timeline not closed: %+v", tl)
	}
	if tl.Error != "core: job 0 failed at stage commit: bad witness" {
		t.Fatalf("error = %q", tl.Error)
	}
	if jobs, completed, failed := countJobs(f.Timelines()); jobs != 1 || completed != 0 || failed != 1 {
		t.Fatalf("jobs %d completed %d failed %d", jobs, completed, failed)
	}
}

// countJobs counts the recorded timelines, and the finished ones by
// outcome.
func countJobs(tls []JobTimeline) (jobs, completed, failed int) {
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

func TestFlightRecorderEviction(t *testing.T) {
	f := NewFlightRecorder(2)
	a := f.Submit(0, 0, -1)
	b := f.Submit(0, 1, -1)
	c := f.Submit(0, 2, -1)
	if f.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", f.Dropped())
	}
	if _, ok := f.Timeline(a); ok {
		t.Fatal("oldest timeline survived eviction")
	}
	for _, id := range []TraceID{b, c} {
		if _, ok := f.Timeline(id); !ok {
			t.Fatalf("timeline %d evicted out of order", id)
		}
	}
}

func TestFlightWriteJSONSchema(t *testing.T) {
	f := NewFlightRecorder(0)
	id := f.Submit(0, 3, 1)
	f.Stage(id, "commit", 10, 5)
	f.Emit(id, "")

	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var exp struct {
		SchemaVersion int           `json:"schema_version"`
		Dropped       int64         `json:"dropped"`
		Jobs          []JobTimeline `json:"jobs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &exp); err != nil {
		t.Fatal(err)
	}
	if exp.SchemaVersion != TimelineSchemaVersion || len(exp.Jobs) != 1 {
		t.Fatalf("export: %+v", exp)
	}
	if exp.Jobs[0].TraceID != id || exp.Jobs[0].Shard != 1 {
		t.Fatalf("exported job: %+v", exp.Jobs[0])
	}

	// A nil recorder still writes a well-formed empty document.
	buf.Reset()
	var nilRec *FlightRecorder
	if err := nilRec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"jobs": []`) {
		t.Fatalf("nil export: %s", buf.String())
	}
}

func TestNilFlightRecorderSafety(t *testing.T) {
	var f *FlightRecorder
	if id := f.Submit(9, 0, 0); id != 9 {
		t.Fatalf("nil Submit returned %d, want the input id", id)
	}
	f.Stage(1, "s", 0, 0)
	f.Emit(1, "")
	if f.Mint() != 0 || f.Now() != 0 || f.Dropped() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if tls := f.Timelines(); tls != nil {
		t.Fatalf("nil Timelines = %v", tls)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := f.Submit(0, g*50+i, g)
				f.Stage(id, "commit", int64(i), 1)
				f.Emit(id, "")
			}
		}(g)
	}
	wg.Wait()
	tls := f.Timelines()
	if len(tls) != 400 {
		t.Fatalf("recorded %d timelines, want 400", len(tls))
	}
	if jobs, completed, failed := countJobs(tls); jobs != 400 || completed != 400 || failed != 0 {
		t.Fatalf("jobs %d completed %d failed %d", jobs, completed, failed)
	}
}

// TestChromeTraceDeterministicOrder is the export-ordering contract: the
// same set of spans produces byte-identical trace.json no matter what
// order concurrent workers recorded them in, so trace snapshots diff.
func TestChromeTraceDeterministicOrder(t *testing.T) {
	// Span ids are assigned at record time, so they are the one field
	// allowed to vary with recording order; mask them before comparing.
	idArg := regexp.MustCompile(`"id":\d+`)
	render := func(perm []int) string {
		tr := NewTracer(64)
		for _, i := range perm {
			tr.Add("core", fmt.Sprintf("stage%d", i%3), 0, i%2, i,
				float64(1000+10*i), 5)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return idArg.ReplaceAllString(buf.String(), `"id":0`)
	}
	want := render([]int{0, 1, 2, 3, 4, 5})
	for _, perm := range [][]int{
		{5, 4, 3, 2, 1, 0},
		{2, 0, 4, 1, 5, 3},
	} {
		if got := render(perm); got != want {
			t.Fatalf("trace export depends on recording order:\n%s\nvs\n%s", got, want)
		}
	}
}

// TestSpanCarriesTraceID: a span tagged with a flight trace id exports it
// in its Chrome trace args, so timelines and traces cross-reference.
func TestSpanCarriesTraceID(t *testing.T) {
	s := NewSink(Config{})
	sp := s.Trace().Begin("core", "commit", 0, 0, 1)
	sp.SetTrace(77)
	sp.End()
	var buf bytes.Buffer
	if err := s.Trace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"trace":77`) {
		t.Fatalf("trace id missing from Chrome export: %s", buf.String())
	}
}
