package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced pass. Spans are recorded from
// outside the program, around calls to a layer's public functions, and
// kept in memory until the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Job    int    `json:"job"`
}

// tracer collects spans. It is used from one goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.origin).Nanoseconds() }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, job int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.at(time.Now()), Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.at(time.Now()) }

// add records a span whose endpoints were stamped elsewhere (the load
// generator's per-job timestamps).
func (t *tracer) add(name string, start, end time.Time, parent, job int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent, Job: job})
	return len(t.spans) - 1
}

// time runs f inside a span and returns the span's duration.
func (t *tracer) time(name string, parent, job int, f func()) time.Duration {
	id := t.begin(name, parent, job)
	f()
	t.end(id)
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// checkTree reports the first span that is not closed, points at a parent
// that does not precede it, or reaches outside its parent's interval.
func checkTree(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", i, s.Name)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d %q has parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] outside parent %q [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Job != p.Job {
			return fmt.Errorf("span %d %q is of job %d, its parent of job %d", i, s.Name, s.Job, p.Job)
		}
	}
	return nil
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durationsByName groups span durations, in milliseconds, by span name.
func durationsByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// traceFile is what -trace-out writes when a traced run ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	SelfNs   []int64            `json:"self_ns"`
	Counters map[string]float64 `json:"counters"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
