// Command batchzk demonstrates batch proof generation from the command
// line: it synthesizes a circuit at a requested scale, streams a batch of
// proof jobs through the pipelined prover, verifies every proof, and
// reports throughput.
//
// Usage:
//
//	batchzk -gates 1024 -batch 16 -depth 4      # batch proving demo
//	batchzk -batch 64 -shards 4                  # split the batch across 4 provers
//	batchzk -batch 16 -telemetry out/            # + metrics & Chrome trace dump
//	batchzk -debug-addr localhost:6060           # + live pprof/expvar server
//	batchzk prove  -gates 512 -out proof.bzk     # write a proof bundle
//	batchzk verify -in proof.bzk                 # check a proof bundle
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"batchzk"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "batchzk:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "prove":
			fs := flag.NewFlagSet("prove", flag.ContinueOnError)
			fs.SetOutput(stderr)
			gates := fs.Int("gates", 256, "multiplication gates")
			seed := fs.Int64("seed", 1, "circuit synthesis seed")
			out := fs.String("out", "proof.bzk", "output bundle path")
			if err := fs.Parse(args[1:]); err != nil {
				return err
			}
			return proveToFile(*gates, *seed, *out, stdout)
		case "verify":
			fs := flag.NewFlagSet("verify", flag.ContinueOnError)
			fs.SetOutput(stderr)
			in := fs.String("in", "proof.bzk", "input bundle path")
			if err := fs.Parse(args[1:]); err != nil {
				return err
			}
			return verifyFromFile(*in, stdout)
		}
	}

	fs := flag.NewFlagSet("batchzk", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gates := fs.Int("gates", 256, "multiplication gates in the synthesized circuit (scale S)")
	batch := fs.Int("batch", 8, "number of proofs to generate")
	depth := fs.Int("depth", 4, "pipeline depth (proofs in flight per shard)")
	seed := fs.Int64("seed", 1, "circuit synthesis seed")
	shards := fs.Int("shards", 1, "independent prover shards the batch is split across")
	telemetryDir := fs.String("telemetry", "", "directory to dump telemetry (metrics.json, trace.json, spans.jsonl)")
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars, /debug/pprof, /debug/telemetry, /healthz, /readyz and /debug/obs/slo on this address")
	logDest := fs.String("log", "", `structured JSON event log destination: "-" or "stderr" for stderr, "stdout", or a file path; also enables the obs engine`)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *logDest != "" || *debugAddr != "" {
		logOut, closeLog, err := openLogOutput(*logDest, stderr)
		if err != nil {
			return err
		}
		if closeLog != nil {
			defer closeLog()
		}
		batchzk.EnableObs(batchzk.NewObsEngine(batchzk.ObsConfig{LogOutput: logOut}))
		defer batchzk.EnableObs(nil)
	}

	var sink *batchzk.TelemetrySink
	if *telemetryDir != "" {
		// Create the dump directory up front so a bad path fails before
		// the run, not after it.
		if err := os.MkdirAll(*telemetryDir, 0o755); err != nil {
			return fmt.Errorf("cannot create telemetry directory %s: %w", *telemetryDir, err)
		}
	}
	if *telemetryDir != "" || *debugAddr != "" {
		sink = batchzk.NewTelemetrySink()
		batchzk.EnableTelemetry(sink)
	}
	if *debugAddr != "" {
		srv, err := batchzk.ServeTelemetryDebug(*debugAddr, sink)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "debug server on http://%s/debug/telemetry\n", srv.Addr)
	}

	c, err := batchzk.RandomCircuit(*gates, 2, 2, *seed)
	if err != nil {
		return err
	}
	params, err := batchzk.Setup(c)
	if err != nil {
		return err
	}
	var prove func([]batchzk.Job) []batchzk.Result
	if *shards > 1 {
		sp, err := batchzk.NewShardedProver(c, params, *shards, *depth)
		if err != nil {
			return err
		}
		prove = sp.ProveBatch
	} else {
		bp, err := batchzk.NewBatchProver(c, params, *depth)
		if err != nil {
			return err
		}
		prove = bp.ProveBatch
	}
	fmt.Fprintf(stdout, "circuit: %d mul gates, %d wires\n", c.NumMulGates(), c.NumWires())
	fmt.Fprintf(stdout, "pipeline: %d shard(s), depth %d\n", *shards, *depth)

	jobs := make([]batchzk.Job, *batch)
	publics := make([][]batchzk.Element, *batch)
	for i := range jobs {
		publics[i] = batchzk.RandVector(2)
		jobs[i] = batchzk.Job{ID: i, Public: publics[i], Secret: batchzk.RandVector(2)}
	}

	start := time.Now()
	results := prove(jobs)
	elapsed := time.Since(start)

	verified := 0
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("job %d: %w", i, r.Err)
		}
		if err := batchzk.Verify(c, params, publics[i], r.Proof); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		verified++
	}
	fmt.Fprintf(stdout, "generated and verified %d proofs in %v (%.2f proofs/s, pipeline depth %d)\n",
		verified, elapsed.Round(time.Millisecond),
		float64(verified)/elapsed.Seconds(), *depth)

	if *telemetryDir != "" {
		if err := sink.Dump(*telemetryDir); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "telemetry written to %s (load trace.json in chrome://tracing)\n", *telemetryDir)
	}
	return nil
}

// openLogOutput resolves the -log destination: "-"/"stderr" → the
// process stderr, "stdout" → stdout, anything else → a created file
// (with a closer), "" → nil (no event log, engine still runs).
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
