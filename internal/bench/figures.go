package bench

import (
	"fmt"

	"batchzk/internal/encoder"
	"batchzk/internal/gpusim"
	"batchzk/internal/perfmodel"
	"batchzk/internal/pipeline"
)

// sparkline renders a 0..1 series as a compact text plot.
func sparkline(vals []float64) string {
	levels := []rune(" ▁▂▃▄▅▆▇█")
	out := make([]rune, len(vals))
	for i, v := range vals {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out[i] = levels[int(v*float64(len(levels)-1)+0.5)]
	}
	return string(out)
}

// resample reduces a utilization trace to width points.
func resample(trace []gpusim.UtilSample, width int) []float64 {
	if len(trace) == 0 {
		return nil
	}
	out := make([]float64, width)
	for i := range out {
		idx := i * len(trace) / width
		out[i] = trace[idx].Util
	}
	return out
}

// traceStats returns the mean utilization of a trace.
func traceStats(trace []gpusim.UtilSample) float64 {
	if len(trace) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range trace {
		sum += s.Util
	}
	return sum / float64(len(trace))
}

// Fig9 reproduces the GPU core-utilization study (Figure 9): utilization
// over time for each module, pipelined vs the non-pipelined baseline, on
// the RTX 3090 Ti (the paper's choice).
func Fig9() (*Table, error) {
	spec := perfmodel.RTX3090Ti()
	costs := perfmodel.GPUCosts()
	const logN = 18
	const batch = 256
	t := &Table{
		ID:     "fig9",
		Title:  fmt.Sprintf("GPU core utilization over time, %s, size 2^%d, batch %d", spec.Name, logN, batch),
		Header: []string{"Module", "Scheme", "Mean util", "Timeline (time →)"},
	}
	add := func(module, scheme string, rep *gpusim.Report) {
		t.Rows = append(t.Rows, []string{
			module, scheme,
			fmt.Sprintf("%4.1f%%", traceStats(rep.Trace)*100),
			sparkline(resample(rep.Trace, 60)),
		})
	}

	pm, err := pipeline.SimulateMerkle(spec, costs, 1<<logN, batch, pipeline.Pipelined, true)
	if err != nil {
		return nil, err
	}
	nm, err := pipeline.SimulateMerkle(spec, costs, 1<<logN, batch, pipeline.Naive, false)
	if err != nil {
		return nil, err
	}
	add("Merkle", "ours (pipelined)", pm)
	add("Merkle", "Simon (naive)", nm)

	ps, err := pipeline.SimulateSumcheck(spec, costs, logN, batch, pipeline.Pipelined, true)
	if err != nil {
		return nil, err
	}
	ns, err := pipeline.SimulateSumcheck(spec, costs, logN, batch, pipeline.Naive, false)
	if err != nil {
		return nil, err
	}
	add("Sumcheck", "ours (pipelined)", ps)
	add("Sumcheck", "Icicle (naive)", ns)

	work, err := encoder.WorkModel(1<<logN, encoder.DefaultParams())
	if err != nil {
		return nil, err
	}
	pe, err := pipeline.SimulateEncoderFromWork(spec, costs, work, 1<<logN, batch, pipeline.Pipelined, true, true)
	if err != nil {
		return nil, err
	}
	ne, err := pipeline.SimulateEncoderFromWork(spec, costs, work, 1<<logN, batch, pipeline.Naive, false, true)
	if err != nil {
		return nil, err
	}
	add("Encoder", "ours (pipelined)", pe)
	add("Encoder", "ours-np (naive)", ne)

	t.Notes = append(t.Notes,
		"pipelined schemes hold a high plateau; naive schemes decay as reduction stages idle threads (paper Fig. 9)")
	return t, nil
}

// Fig4 reproduces the thread-workload schematic of Figure 4: per-cycle
// busy-thread fractions for the naive and pipelined Merkle schemes.
func Fig4() (*Table, error) {
	spec := perfmodel.V100()
	costs := perfmodel.GPUCosts()
	const logN = 14
	const batch = 32
	naive, err := pipeline.SimulateMerkle(spec, costs, 1<<logN, batch, pipeline.Naive, false)
	if err != nil {
		return nil, err
	}
	pipe, err := pipeline.SimulateMerkle(spec, costs, 1<<logN, batch, pipeline.Pipelined, true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig4",
		Title:  fmt.Sprintf("Thread workload, Merkle batch of %d trees of 2^%d blocks (%s)", batch, logN, spec.Name),
		Header: []string{"Scheme", "Mean util", "Busy threads over time"},
		Rows: [][]string{
			{"(a) intuitive", fmt.Sprintf("%4.1f%%", traceStats(naive.Trace)*100), sparkline(resample(naive.Trace, 60))},
			{"(b) pipelined", fmt.Sprintf("%4.1f%%", traceStats(pipe.Trace)*100), sparkline(resample(pipe.Trace, 60))},
		},
		Notes: []string{"the pipelined scheme ramps up, holds every thread busy, and drains (paper Fig. 4b)"},
	}
	return t, nil
}

// Fig6 prints the two-pipeline encoder schedule of Figure 6: which task
// occupies which stage at every cycle, for the stage count of a small
// encoder.
func Fig6() (*Table, error) {
	enc, err := encoder.New(64, encoder.DefaultParams())
	if err != nil {
		return nil, err
	}
	numStages := 2*enc.NumStages() + 1
	const tasks = 5
	t := &Table{
		ID:    "fig6",
		Title: fmt.Sprintf("Two-pipeline encoder schedule: %d tasks through %d stages (fwd ×%d, base, bwd ×%d)", tasks, numStages, enc.NumStages(), enc.NumStages()),
	}
	t.Header = []string{"Cycle"}
	for s := 0; s < enc.NumStages(); s++ {
		t.Header = append(t.Header, fmt.Sprintf("fwd%d", s))
	}
	t.Header = append(t.Header, "base")
	for s := enc.NumStages() - 1; s >= 0; s-- {
		t.Header = append(t.Header, fmt.Sprintf("bwd%d", s))
	}
	for cycle := 0; cycle < tasks+numStages-1; cycle++ {
		row := []string{fmt.Sprintf("%d", cycle)}
		for stage := 0; stage < numStages; stage++ {
			task := cycle - stage
			if task >= 0 && task < tasks {
				row = append(row, fmt.Sprintf("T%d", task))
			} else {
				row = append(row, "·")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Experiment names in paper order, followed by the ablations this
// reproduction adds for the design choices DESIGN.md calls out.
var experimentOrder = []string{
	"table3", "table4", "table5", "table6", "fig9",
	"table7", "table8", "table9", "table10", "table11",
	"fig4", "fig6",
	"alloc", "ablation-alloc", "ablation-sort", "ablation-overlap",
	"ablation-multigpu", "ablation-pipeline", "proofsize",
}

// Run executes one experiment by id on the given primary device.
func Run(id string, spec gpusim.DeviceSpec) (*Table, error) {
	switch id {
	case "table3":
		return Table3(spec)
	case "table4":
		return Table4(spec)
	case "table5":
		return Table5(spec)
	case "table6":
		return Table6(spec)
	case "table7":
		return Table7(spec)
	case "table8":
		return Table8()
	case "table9":
		return Table9()
	case "table10":
		return Table10()
	case "table11":
		return Table11(spec)
	case "fig4":
		return Fig4()
	case "fig6":
		return Fig6()
	case "fig9":
		return Fig9()
	case "alloc":
		return Alloc()
	case "ablation-alloc":
		return AblationAlloc()
	case "ablation-sort":
		return AblationSort()
	case "ablation-overlap":
		return AblationOverlap()
	case "ablation-multigpu":
		return AblationMultiGPU()
	case "ablation-pipeline":
		return AblationPipeline()
	case "proofsize":
		return ProofSize()
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, experimentOrder)
	}
}

// All runs every experiment in paper order.
func All(spec gpusim.DeviceSpec) ([]*Table, error) {
	var out []*Table
	for _, id := range experimentOrder {
		t, err := Run(id, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Experiments lists the available experiment ids.
func Experiments() []string {
	return append([]string(nil), experimentOrder...)
}
