package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (the "X" complete-event flavor plus "M" metadata events), loadable in
// chrome://tracing and https://ui.perfetto.dev.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event container object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serializes the recorded spans in Chrome trace_event
// format. Each layer becomes its own trace process (wall-clock and
// simulated layers therefore never share a timeline), and each span's
// TID becomes a named thread track, so a pipelined run renders as
// Figure 9's staggered parallelogram while a naive run renders as
// sequential blocks. Events are emitted in a canonical order — metadata
// first, then spans sorted by (timestamp, pid, tid, id) — so two exports
// of the same spans are byte-identical and trace snapshots diff cleanly
// in tests and CI artifacts, regardless of the concurrent record order.
// Nil-safe: a nil tracer writes an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].Layer != spans[j].Layer {
			return spans[i].Layer < spans[j].Layer
		}
		if spans[i].TID != spans[j].TID {
			return spans[i].TID < spans[j].TID
		}
		return spans[i].ID < spans[j].ID
	})

	// Stable layer → pid assignment.
	layers := map[string]int{}
	var layerNames []string
	for _, s := range spans {
		if _, ok := layers[s.Layer]; !ok {
			layers[s.Layer] = 0
			layerNames = append(layerNames, s.Layer)
		}
	}
	sort.Strings(layerNames)
	for i, l := range layerNames {
		layers[l] = i + 1
	}

	trace := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	for _, l := range layerNames {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: layers[l],
			Args: map[string]any{"name": l},
		})
	}
	for _, s := range spans {
		args := map[string]any{"id": uint64(s.ID)}
		if s.Parent != 0 {
			args["parent"] = uint64(s.Parent)
		}
		if s.Task >= 0 {
			args["task"] = s.Task
		}
		if s.Trace != 0 {
			args["trace"] = uint64(s.Trace)
		}
		if s.Sim {
			args["clock"] = "simulated"
		}
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name:  s.Name,
			Cat:   s.Layer,
			Phase: "X",
			TS:    s.Start / 1e3,
			Dur:   s.Dur / 1e3,
			PID:   layers[s.Layer],
			TID:   s.TID,
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// WriteJSONL writes one span per line as JSON, oldest first — the raw
// export for ad-hoc analysis. Nil-safe.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot writes the registry's metrics snapshot as indented JSON.
// Nil-safe: a nil registry writes an empty snapshot.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Dump writes the sink's full state into dir (created if missing):
//
//	metrics.json  — the metrics snapshot (counters, gauges, histograms)
//	trace.json    — Chrome trace_event timeline (chrome://tracing, Perfetto)
//	spans.jsonl   — raw spans, one JSON object per line
//	timeline.json — per-job flight-recorder timelines (trace ids, stage
//	                spans, shard assignment, failure errors)
//
// Nil-safe: a nil sink is an error (nothing to dump).
func (s *Sink) Dump(dir string) error {
	if s == nil {
		return fmt.Errorf("telemetry: no sink to dump")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"metrics.json", s.Metrics.WriteSnapshot},
		{"trace.json", s.Tracer.WriteChromeTrace},
		{"spans.jsonl", s.Tracer.WriteJSONL},
		{"timeline.json", s.Flight.WriteJSON},
	}
	for _, f := range files {
		out, err := os.Create(filepath.Join(dir, f.name))
		if err != nil {
			return err
		}
		werr := f.write(out)
		cerr := out.Close()
		if werr != nil {
			return fmt.Errorf("telemetry: writing %s: %w", f.name, werr)
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}
