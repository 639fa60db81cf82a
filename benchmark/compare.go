package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &spec, nil
}

// readRecords groups the end-to-end values of a record file by workload
// and metric: one value per untraced run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open records: %w", err)
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		if rec.Traced {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, b ÷ a, and a verdict. `regressed` means b's median is worse than
// a's by more than the metric's bound; `unresolved` means the run-to-run
// quartile spread of either side is wider than the bound, so the runs
// cannot tell. It reports whether any row is not `ok`.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tb/a\ta runs\tb runs\ta spread\tb spread\tbound\tverdict")
	bad := false
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := summarize(a[w.Name][m.Name]), summarize(b[w.Name][m.Name])
			verdict := "ok"
			switch {
			case sa.N == 0 || sb.N == 0:
				verdict = "missing"
			case sa.spread() > m.Bound || sb.spread() > m.Bound:
				verdict = "unresolved"
			case m.Better == "lower" && sb.Median > sa.Median*(1+m.Bound),
				m.Better == "higher" && sb.Median < sa.Median*(1-m.Bound):
				verdict = "regressed"
			}
			bad = bad || verdict != "ok"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.4f (of %.4f)\t%d\t%d\t%.3f\t%.3f\t%.2f\t%s\n",
				w.Name, m.Name, m.Unit, sa.Median, sb.Median, ratio(sb.Median, sa.Median), sa.Median,
				sa.N, sb.N, sa.spread(), sb.spread(), m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, fmt.Errorf("write comparison: %w", err)
	}
	return bad, nil
}
