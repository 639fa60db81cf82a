package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTracerWallSpans(t *testing.T) {
	clk := &fakeClock{ns: int64(time.Hour)}
	tr := NewSink(Config{Now: clk.now}).Tracer
	root := tr.Begin("core", "job", 0, 0, 7)
	clk.advance(time.Microsecond)
	child := tr.Begin("core", "stage/commit", root.ID(), 1, 7)
	clk.advance(time.Millisecond)
	child.End()
	clk.advance(time.Microsecond)
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Recorded in End order: child first.
	c, r := spans[0], spans[1]
	if c.Name != "stage/commit" || r.Name != "job" {
		t.Fatalf("order: %v %v", c.Name, r.Name)
	}
	if c.Parent != r.ID {
		t.Fatal("parent link broken")
	}
	if c.Dur != float64(time.Millisecond) || r.Dur != float64(time.Millisecond+2*time.Microsecond) {
		t.Fatalf("durations: child %.0f root %.0f", c.Dur, r.Dur)
	}
	if r.Start != 0 || c.Start != float64(time.Microsecond) {
		t.Fatalf("starts on the sink clock: child %.0f root %.0f", c.Start, r.Start)
	}
	if c.Start < r.Start || c.End() > r.End()+1 {
		t.Fatal("child span escapes parent interval")
	}
	if c.Sim || r.Sim {
		t.Fatal("wall spans must not be marked simulated")
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Add("gpusim", "k", 0, 0, i, float64(i), 1)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest first, tail of the run retained.
	for i, s := range spans {
		if s.Task != 6+i {
			t.Fatalf("span %d has task %d, want %d", i, s.Task, 6+i)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestNilTracerSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", "y", 0, 0, -1)
	if sp != nil {
		t.Fatal("nil tracer must return nil span")
	}
	sp.End() // no-op
	if sp.ID() != 0 {
		t.Fatal("nil span id must be 0")
	}
	if tr.Add("x", "y", 0, 0, -1, 0, 1) != 0 {
		t.Fatal("nil tracer Add must return 0")
	}
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must read as empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(64)
	root := tr.Add("gpusim", "run/pipelined", 0, 0, -1, 0, 100)
	tr.Add("gpusim", "kernel/a", root, 0, 0, 0, 10)
	tr.Add("gpusim", "kernel/b", root, 1, 1, 5, 10)
	wall := tr.Begin("core", "stage/commit", 0, 0, 3)
	wall.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var meta, complete int
	pids := map[string]int{}
	for _, e := range trace.TraceEvents {
		switch e.Phase {
		case "M":
			meta++
			pids[e.Args["name"].(string)] = e.PID
		case "X":
			complete++
			if e.Dur < 0 {
				t.Fatalf("negative duration on %s", e.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Phase)
		}
	}
	if meta != 2 || complete != 4 {
		t.Fatalf("meta=%d complete=%d", meta, complete)
	}
	// Distinct layers land in distinct trace processes.
	if pids["core"] == pids["gpusim"] || pids["core"] == 0 || pids["gpusim"] == 0 {
		t.Fatalf("layer pids not separated: %v", pids)
	}
	// Simulated spans carry their clock domain and parent in args.
	for _, e := range trace.TraceEvents {
		if e.Name == "kernel/a" {
			if e.Args["clock"] != "simulated" {
				t.Fatal("simulated span missing clock arg")
			}
			if e.Args["parent"] == nil {
				t.Fatal("child span missing parent arg")
			}
		}
	}
}

func TestJSONLExport(t *testing.T) {
	tr := NewTracer(16)
	tr.Add("gpusim", "k1", 0, 0, 0, 0, 5)
	tr.Add("gpusim", "k2", 0, 0, 1, 5, 5)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d JSONL lines", lines)
	}
}

func TestSinkDump(t *testing.T) {
	s := NewSink(Config{})
	s.Counter("c").Inc()
	s.Tracer.Add("gpusim", "k", 0, 0, -1, 0, 1)
	dir := t.TempDir() + "/out"
	if err := s.Dump(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.json", "trace.json", "spans.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
	}
	var nilSink *Sink
	if err := nilSink.Dump(dir); err == nil {
		t.Fatal("nil sink dump must error")
	}
}

func TestDebugHandler(t *testing.T) {
	s := NewSink(Config{})
	s.Counter("core/jobs/completed").Add(2)
	s.Tracer.Add("gpusim", "k", 0, 0, -1, 0, 1)
	srv := httptest.NewServer(DebugHandler(s))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var sb strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	if body := get("/debug/telemetry"); !strings.Contains(body, "core/jobs/completed") {
		t.Fatalf("snapshot body missing counter: %s", body)
	}
	if body := get("/debug/telemetry/trace"); !strings.Contains(body, "traceEvents") {
		t.Fatal("trace body not a chrome trace")
	}
	if body := get("/debug/vars"); !strings.Contains(body, "batchzk.telemetry") {
		t.Fatal("expvar missing batchzk.telemetry")
	}
	get("/debug/pprof/")
}
