package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// smoke runs a workload at a 2^6-gate size for a fraction of a second.
func smoke(t *testing.T, name string, traced bool, traceOut string) *record {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.LogGates = 6
	rec, err := runWorkload(w, options{seed: 7, seconds: 0.1, traced: traced, traceOut: traceOut})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d %v", name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
	}
	return rec
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func TestNamesEqualBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !valid.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	var got []string
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", got, want)
	}

	got = nil
	hasSetup := false
	for i, m := range spec.EndToEnd {
		check("end-to-end", m.Name)
		got = append(got, m.Name)
		if i < len(endToEnd) && m.Unit != endToEnd[i].Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !reflect.DeepEqual(got, names(endToEnd)) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", got, names(endToEnd))
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	got = nil
	for i, m := range spec.PerLayer {
		check("per-layer", m.Name)
		got = append(got, m.Name)
		if i < len(perLayer) && m.Unit != perLayer[i].Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, perLayer[i].Unit)
		}
	}
	if !reflect.DeepEqual(got, names(perLayer)) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program %v", got, names(perLayer))
	}
}

func TestEveryWorkloadEmitsExactlyTheNamedMetrics(t *testing.T) {
	digests := make(map[string]string)
	defer func() {
		// The 2^16 pair share circuit, seed and jobs: one digest, traced or not.
		want := digests["batch-2e16"]
		for _, k := range []string{"stream-2e16", "batch-2e16/traced", "stream-2e16/traced"} {
			if want == "" || digests[k] != want {
				t.Errorf("proof digest of %s is %q, of batch-2e16 %q", k, digests[k], want)
			}
		}
	}()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			tracePath := ""
			if traced {
				defs = perLayer
				tracePath = filepath.Join(t.TempDir(), "trace.json")
			}
			rec := smoke(t, w.Name, traced, tracePath)
			key := w.Name
			if traced {
				key += "/traced"
			}
			digests[key] = rec.Digest
			if n := rec.Timings["setup_s"].N; !traced && n != setupSamples {
				t.Errorf("%s: setup_s is the median of %d set-ups, want %d", w.Name, n, setupSamples)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is %v", w.Name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			// The result line carries exactly the four contract keys.
			line, err := json.Marshal(rec.result)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line has keys %v", keys)
			}
			if traced {
				checkTraceFile(t, tracePath, w)
			}
		}
	}
}

func checkTraceFile(t *testing.T, path string, w workload) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if err := checkTree(tf.Spans); err != nil {
		t.Errorf("%s: %v", w.Name, err)
	}
	if len(tf.SelfNs) != len(tf.Spans) {
		t.Fatalf("%s: %d self times for %d spans", w.Name, len(tf.SelfNs), len(tf.Spans))
	}
	have := make(map[string]bool)
	for i, s := range tf.Spans {
		have[s.Name] = true
		if tf.SelfNs[i] < 0 || tf.SelfNs[i] > s.End-s.Start {
			t.Errorf("%s: span %d %q has self time %d of %d", w.Name, i, s.Name, tf.SelfNs[i], s.End-s.Start)
		}
	}
	want := append([]string{"job", "replay", "circuit.evaluate", "protocol.encode", "protocol.verify"}, stageSpans[:]...)
	if w.Serve {
		want = append(want, "request", "service.submit", "service.wait", "service.fetch")
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("%s: no %q span", w.Name, name)
		}
	}
}

func TestSeedFixesInputs(t *testing.T) {
	a, b, c := makePool(3, 4), makePool(3, 4), makePool(4, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different job inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same job inputs")
	}
	w, _ := findWorkload("batch-2e12")
	w.LogGates = 6
	f1, err := buildProblem(w, 3, a)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := buildProblem(w, 3, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1.c.Gates, f2.c.Gates) {
		t.Error("the same seed gave different circuits")
	}
}

func TestMutantIsCaught(t *testing.T) {
	w, _ := findWorkload("batch-2e12")
	w.LogGates, w.Warmup = 6, 0
	rig, _, err := setupProver(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := &record{}
	ck := newChecker(rig.fixture, rec)
	l := rig.drive(0, 0, 2)
	l.verify(ck, "hi", rec)
	if rec.Failed != 0 {
		t.Fatalf("good proofs failed: %v", rec.Errors)
	}
	ck.mutant(5)
	if rec.Failed != 0 {
		t.Fatalf("the bit-flipped proof was accepted: %v", rec.Errors)
	}
	// The same proof bytes under another job's input must be refused.
	ck.check(1, l.results[0].Proof, nil)
	if rec.Failed != 1 {
		t.Errorf("a proof checked against the wrong input counted %d failures", rec.Failed)
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if median(v) != 5.5 || median([]float64{3, 1, 2}) != 2 || median(nil) != 0 {
		t.Error("median")
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	s := summarize(v)
	if s.N != 10 || s.Median != 5.5 || math.Abs(s.spread()-1) > 1e-12 {
		t.Errorf("summary %+v spread %v", s, s.spread())
	}
}

func TestSpanTree(t *testing.T) {
	good := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a by 10
		{Name: "c", Start: 35, End: 38, Parent: 1},
	}
	if err := checkTree(good); err != nil {
		t.Fatal(err)
	}
	if got := selfTimes(good); !reflect.DeepEqual(got, []int64{50, 27, 30, 3}) {
		t.Errorf("self times %v", got)
	}
	for name, bad := range map[string][]span{
		"child outside parent": {{Start: 0, End: 10, Parent: -1}, {Start: 5, End: 11, Parent: 0}},
		"parent after child":   {{Start: 0, End: 10, Parent: 1}, {Start: 0, End: 10, Parent: -1}},
		"ends before start":    {{Start: 5, End: 4, Parent: -1}},
		"other job":            {{Start: 0, End: 10, Parent: -1, Job: 1}, {Start: 1, End: 2, Parent: 0, Job: 2}},
	} {
		if checkTree(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values ...float64) string {
		var buf bytes.Buffer
		for _, v := range values {
			rec := record{Workload: "batch-2e12"}
			rec.Metrics = map[string]metric{"proofs_per_s": {Value: v, Unit: "1/s"}, "setup_s": {Value: 100 / v, Unit: "s"}}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"batch-2e12"}],"end_to_end":[
		{"name":"proofs_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a", 100, 101, 99, 100, 102)
	for _, c := range []struct {
		name    string
		values  []float64
		verdict string
		bad     bool
	}{
		{"same", []float64{100, 99, 101, 100, 98}, "ok", false},
		{"slower", []float64{85, 86, 84, 85, 85}, "regressed", true},
		{"noisy", []float64{100, 70, 130, 100, 100}, "unresolved", true},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, spec, base, write(c.name, c.values...))
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSpace(out.String()), "\n")
		if bad != c.bad || len(rows) != 3 || !strings.HasSuffix(strings.TrimSpace(rows[1]), c.verdict) {
			t.Errorf("%s: bad=%v, output:\n%s", c.name, bad, out.String())
		}
	}
}
