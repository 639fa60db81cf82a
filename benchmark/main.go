// Command benchmark measures the real host prover end to end and layer by
// layer. One invocation runs one workload for -seconds seconds and prints
// a full record of the run followed, as the last line of standard output,
// by the result object the benchmark contract asks for. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: batch-2e12, batch-2e16, stream-2e16 or serve-2e8")
	seed := fs.Int64("seed", 1, "seed of the circuit, the job inputs and the arrival schedule")
	seconds := fs.Float64("seconds", 15, "how long the run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run and its per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans and counters to this file")
	out := fs.String("out", "", "append the run's record to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments instead of running")
	specPath := fs.String("spec", "BENCHMARK.json", "with -compare, where the metric bounds are read from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two record files")
		}
		regressed, err := compareFiles(os.Stdout, *specPath, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return err
		}
		if regressed {
			return fmt.Errorf("at least one metric regressed or is unresolved")
		}
		return nil
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traced != 0, traceOut: *traceOut}

	rec, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	fmt.Println(string(line))
	if *out != "" {
		if err := appendLine(*out, line); err != nil {
			return err
		}
	}
	last, err := json.Marshal(rec.result)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(last))
	if !rec.Correct {
		return fmt.Errorf("%d of %d operations failed: %v", rec.Failed, rec.Attempted, rec.Errors)
	}
	return nil
}

// options are the command-line settings of one run.
type options struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
}

// span is the given share of the run's measuring time.
func (o options) span(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// runWorkload runs one workload end to end (tracing off) or traced.
func runWorkload(w workload, o options) (*record, error) {
	rec := &record{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Env: readEnvironment()}
	var err error
	switch {
	case w.Serve && o.traced:
		err = traceServe(w, o, rec)
	case w.Serve:
		err = runServe(w, o, rec)
	case o.traced:
		err = traceProver(w, o, rec)
	default:
		err = runProver(w, o, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// sampleSetups sets the workload up setupSamples times, one after the
// other in this process, and returns the seconds each took. The caller's
// setup keeps the last rig and lets go of the one before it.
func sampleSetups(setup func() (time.Duration, error)) ([]float64, error) {
	out := make([]float64, 0, setupSamples)
	for len(out) < setupSamples {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open record file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close record file: %w", err)
	}
	return nil
}
