// Command batchzk-profile runs a named bench scenario under both
// execution schemes, prints the profiler's pipelined-vs-naive bottleneck
// report (the paper's Figure 9 contrast), and writes a schema-versioned
// machine-readable BENCH_<scenario>.json for perf tracking. Its compare
// subcommand diffs two such files and exits non-zero when a gated metric
// regressed past the threshold.
//
// Usage:
//
//	batchzk-profile                          # quickstart scenario on 3090Ti
//	batchzk-profile -scenario sumcheck       # another workload
//	batchzk-profile -device H100 -out out/   # another device, report dir
//	batchzk-profile -format json             # JSON report to stdout too
//	batchzk-profile -list                    # list scenario names
//	batchzk-profile -telemetry out/          # + dump metrics & Chrome trace
//	batchzk-profile -debug-addr :6060        # + live pprof/expvar server
//	batchzk-profile compare OLD.json NEW.json [-threshold 0.10]
//	batchzk-profile roofline                 # host-kernel roofline table:
//	                                         # ns/element vs calibrated ALU floor
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"batchzk"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "roofline" {
		if err := runRoofline(os.Args[2:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "batchzk-profile:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "batchzk-profile:", err)
		os.Exit(1)
	}
}

// runRoofline implements `batchzk-profile roofline`: calibrate the host
// ALU (measured Montgomery multiply/add and hash-compress latencies),
// time every hot kernel serially, and print each kernel's ns/element
// against its arithmetic floor with a percent-of-ceiling verdict —
// the host-side mirror of the GPU simulator's bound verdicts.
func runRoofline(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("roofline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shift := fs.Int("shift", 14, "log2 of the per-kernel problem size")
	reps := fs.Int("reps", 3, "runs per kernel; best time is kept")
	seed := fs.Int64("seed", 1, "input synthesis seed")
	out := fs.String("out", "", "file for the JSON roofline report ('' = don't write)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := batchzk.BuildRooflineReport(*shift, *reps, *seed)
	if err != nil {
		return err
	}
	rep.RenderTable(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("cannot write report: %w", err)
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("cannot write report %s: %w", *out, werr)
		}
		fmt.Fprintf(stderr, "report written to %s\n", *out)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("batchzk-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "quickstart", "bench scenario; see -list")
	device := fs.String("device", "3090Ti", "device profile: GH200, H100, A100, V100, 3090Ti")
	out := fs.String("out", ".", "directory for BENCH_<scenario>.json ('' = don't write)")
	format := fs.String("format", "text", "stdout format: text (profiler report) or json")
	list := fs.Bool("list", false, "list scenario names and exit")
	telemetryDir := fs.String("telemetry", "", "directory to dump telemetry (metrics.json, trace.json, spans.jsonl, timeline.json)")
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars, /debug/pprof and /debug/telemetry on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, sc := range batchzk.BenchScenarios() {
			fmt.Fprintf(stdout, "%-12s %s\n", sc.Name, sc.Title)
		}
		return nil
	}

	if *telemetryDir != "" {
		// Create the dump directory up front so a bad path fails before
		// the scenario runs, not after it.
		if err := os.MkdirAll(*telemetryDir, 0o755); err != nil {
			return fmt.Errorf("cannot create telemetry directory %s: %w", *telemetryDir, err)
		}
	}

	// Enable telemetry before the scenario runs so the provers and
	// simulators the harness constructs internally record into the sink.
	var sink *batchzk.TelemetrySink
	if *telemetryDir != "" || *debugAddr != "" {
		sink = batchzk.NewTelemetrySink(batchzk.TelemetryConfig{})
		batchzk.EnableTelemetry(sink)
	}
	if *debugAddr != "" {
		srv, err := batchzk.ServeTelemetryDebug(*debugAddr, sink)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "debug server on http://%s/debug/telemetry\n", srv.Addr)
	}

	sc, err := batchzk.BenchScenarioByName(*scenario)
	if err != nil {
		return err
	}
	spec, err := batchzk.Device(*device)
	if err != nil {
		return err
	}
	report, contrast, err := batchzk.BuildBenchReport(sc, spec)
	if err != nil {
		return err
	}

	switch *format {
	case "json":
		if err := report.WriteJSON(stdout); err != nil {
			return err
		}
	case "text":
		fmt.Fprintf(stdout, "scenario %s on %s (%d cores): %s\n\n", sc.Name, spec.Name, spec.Cores, sc.Title)
		contrast.Render(stdout)
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fmt.Errorf("cannot create report directory %s: %w", *out, err)
		}
		path := filepath.Join(*out, batchzk.BenchReportFileName(sc.Name))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("cannot write report: %w", err)
		}
		werr := report.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("cannot write report %s: %w", path, werr)
		}
		fmt.Fprintf(stderr, "report written to %s\n", path)
	}
	if *telemetryDir != "" {
		if err := sink.Dump(*telemetryDir); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "telemetry written to %s (load trace.json in chrome://tracing)\n", *telemetryDir)
	}
	return nil
}

// runCompare implements `batchzk-profile compare OLD NEW [-threshold F]`.
// Exit codes: 0 clean, 1 regression found, 2 usage/IO error.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "regression gate as a fraction (0.10 = 10%)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: batchzk-profile compare OLD.json NEW.json [-threshold 0.10]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Accept -threshold on either side of the two file arguments (stdlib
	// flag parsing stops at the first positional).
	files := fs.Args()
	if len(files) > 2 {
		if err := fs.Parse(files[2:]); err != nil {
			return 2
		}
		files = append(files[:2], fs.Args()...)
	}
	if len(files) != 2 {
		fs.Usage()
		return 2
	}
	oldRep, err := readReportFile(files[0])
	if err != nil {
		fmt.Fprintln(stderr, "batchzk-profile:", err)
		return 2
	}
	newRep, err := readReportFile(files[1])
	if err != nil {
		fmt.Fprintln(stderr, "batchzk-profile:", err)
		return 2
	}
	regs, err := batchzk.CompareBenchReports(oldRep, newRep, *threshold)
	if err != nil {
		fmt.Fprintln(stderr, "batchzk-profile:", err)
		return 2
	}
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "compare %s: no regressions past %.0f%% (scenario %s)\n",
			newRep.Scenario, *threshold*100, newRep.Scenario)
		return 0
	}
	fmt.Fprintf(stdout, "compare %s: %d regression(s) past %.0f%%\n", newRep.Scenario, len(regs), *threshold*100)
	for _, r := range regs {
		fmt.Fprintf(stdout, "  %-32s %.4g -> %.4g (%.1f%% worse)\n", r.Metric, r.Old, r.New, r.DeltaFrac*100)
	}
	return 1
}

func readReportFile(path string) (*batchzk.BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cannot read report: %w", err)
	}
	defer f.Close()
	rep, err := batchzk.ReadBenchReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
