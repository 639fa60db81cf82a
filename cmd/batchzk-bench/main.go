// Command batchzk-bench regenerates the tables and figures of the BatchZK
// paper's evaluation (§6) on the simulated hardware profiles.
//
// Usage:
//
//	batchzk-bench                       # run every experiment on GH200
//	batchzk-bench -experiment table7    # one experiment
//	batchzk-bench -device V100          # another device profile
//	batchzk-bench -telemetry out/       # + dump metrics & Chrome trace
//	batchzk-bench -debug-addr :6060     # + live pprof/expvar server
//	batchzk-bench -list                 # list experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"batchzk"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "batchzk-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("batchzk-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "", "experiment id (empty = all); see -list")
	device := fs.String("device", "GH200", "device profile: GH200, H100, A100, V100, 3090Ti")
	format := fs.String("format", "text", "output format: text or csv")
	list := fs.Bool("list", false, "list experiment ids and exit")
	telemetryDir := fs.String("telemetry", "", "directory to dump telemetry (metrics.json, trace.json, spans.jsonl)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof, /debug/telemetry and /healthz on this address")
	logDest := fs.String("log", "", `structured JSON event log destination: "-" or "stderr" for stderr, "stdout", or a file path; also enables telemetry`)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, id := range batchzk.Experiments() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	if *telemetryDir != "" {
		// Create the dump directory up front so a bad path fails before
		// the experiments run, not after them.
		if err := os.MkdirAll(*telemetryDir, 0o755); err != nil {
			return fmt.Errorf("cannot create telemetry directory %s: %w", *telemetryDir, err)
		}
	}

	// One sink records the run whenever a dump, the debug server or the
	// event log asks for it. Enable it before any experiment runs so the
	// provers and simulators the harness constructs internally record
	// into it.
	var sink *batchzk.TelemetrySink
	if *telemetryDir != "" || *debugAddr != "" || *logDest != "" {
		logOut, closeLog, err := openLogOutput(*logDest, stderr)
		if err != nil {
			return err
		}
		if closeLog != nil {
			defer closeLog()
		}
		sink = batchzk.NewTelemetrySink(batchzk.TelemetryConfig{LogOutput: logOut})
		batchzk.EnableTelemetry(sink)
		defer batchzk.EnableTelemetry(nil)
	}
	if *debugAddr != "" {
		srv, err := batchzk.ServeTelemetryDebug(*debugAddr, sink)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "debug server on http://%s/debug/telemetry (metrics on /metrics, liveness on /healthz)\n", srv.Addr)
	}

	// dump writes the telemetry files once the run is over.
	dump := func() error {
		if *telemetryDir == "" {
			return nil
		}
		if err := sink.Dump(*telemetryDir); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "telemetry written to %s (load trace.json in chrome://tracing)\n", *telemetryDir)
		return nil
	}

	spec, err := batchzk.Device(*device)
	if err != nil {
		return err
	}

	render := func(t *batchzk.ExperimentTable) error {
		if *format == "csv" {
			return t.RenderCSV(stdout)
		}
		t.Render(stdout)
		return nil
	}

	if *experiment == "" {
		if *format == "text" {
			fmt.Fprintf(stdout, "BatchZK evaluation reproduction — primary device: %s (%d cores, %.2f GHz)\n\n",
				spec.Name, spec.Cores, spec.ClockGHz)
		}
		for _, id := range batchzk.Experiments() {
			table, err := batchzk.RunExperiment(id, spec)
			if err != nil {
				return err
			}
			if err := render(table); err != nil {
				return err
			}
		}
	} else {
		table, err := batchzk.RunExperiment(*experiment, spec)
		if err != nil {
			return err
		}
		if err := render(table); err != nil {
			return err
		}
	}

	return dump()
}

// openLogOutput resolves the -log destination: "-"/"stderr" → the
// process stderr, "stdout" → stdout, anything else → a created file
// (with a closer), "" → nil (no event log; the sink still records).
func openLogOutput(dest string, stderr io.Writer) (io.Writer, func(), error) {
	switch dest {
	case "":
		return nil, nil, nil
	case "-", "stderr":
		return stderr, nil, nil
	case "stdout":
		return os.Stdout, nil, nil
	default:
		f, err := os.Create(dest)
		if err != nil {
			return nil, nil, fmt.Errorf("cannot open log destination %s: %w", dest, err)
		}
		return f, func() { _ = f.Close() }, nil
	}
}
