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
//	batchzk-bench -faults all -fault-seed 7
//	                                    # reproducible chaos run through
//	                                    # the resilient batch prover
//	batchzk-bench -faults all -shards 2 # chaos through a sharded prover
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
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars, /debug/pprof, /debug/telemetry, /healthz, /readyz and /debug/obs/slo on this address")
	logDest := fs.String("log", "", `structured JSON event log destination: "-" or "stderr" for stderr, "stdout", or a file path; also enables the obs engine`)
	floorsPath := fs.String("floors", "", "roofline report (batchzk-profile roofline -out) whose calibrated per-kernel floors seed the obs anomaly sentinel")
	hold := fs.Duration("hold", 0, "keep the process (and the debug server) alive this long after the run, for live probing")
	faultSpec := fs.String("faults", "", `chaos spec, e.g. "all", "all=0.25", "kernel=0.2,straggler=0.05"; runs a fault-injected batch instead of the experiments`)
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the deterministic fault plan (same seed = same faults)")
	faultJobs := fs.Int("fault-jobs", 32, "number of proof jobs in the chaos run")
	shards := fs.Int("shards", 1, "chaos-run prover shards the batch is split across")
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

	// Enable telemetry before any experiment runs so the provers and
	// simulators the harness constructs internally record into the sink,
	// and before chaos dispatch so fault-injected runs are observable too.
	var sink *batchzk.TelemetrySink
	if *telemetryDir != "" || *debugAddr != "" {
		sink = batchzk.NewTelemetrySink()
		batchzk.EnableTelemetry(sink)
	}

	// The obs engine rides along whenever a log destination or the debug
	// server is requested: the event log, SLO windows, and sentinel all
	// feed from the instrumented layers, and /healthz, /readyz, and
	// /debug/obs/slo on the debug server answer from it.
	if *logDest != "" || *debugAddr != "" {
		logOut, closeLog, err := openLogOutput(*logDest, stderr)
		if err != nil {
			return err
		}
		if closeLog != nil {
			defer closeLog()
		}
		eng := batchzk.NewObsEngine(batchzk.ObsConfig{LogOutput: logOut})
		if *floorsPath != "" {
			f, err := os.Open(*floorsPath)
			if err != nil {
				return fmt.Errorf("cannot open roofline floors: %w", err)
			}
			roof, rerr := batchzk.ReadRooflineReport(f)
			_ = f.Close()
			if rerr != nil {
				return rerr
			}
			eng.SetFloors(roof.Floors())
		}
		batchzk.EnableObs(eng)
		defer batchzk.EnableObs(nil)
	} else if *floorsPath != "" {
		return fmt.Errorf("-floors needs the obs engine; pass -log or -debug-addr as well")
	}
	if *debugAddr != "" {
		srv, err := batchzk.ServeTelemetryDebug(*debugAddr, sink)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "debug server on http://%s/debug/telemetry (health on /healthz, /readyz, SLO on /debug/obs/slo)\n", srv.Addr)
	}
	// holdOpen keeps the debug server reachable after the run so probes
	// (curl, batchzk-top) can read the final state.
	holdOpen := func() {
		if *hold > 0 {
			fmt.Fprintf(stderr, "holding for %v\n", *hold)
			time.Sleep(*hold)
		}
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

	if *faultSpec != "" {
		err := runChaos(*faultSpec, *faultSeed, *faultJobs, *shards, stdout)
		// Dump even when the run failed: an unreconciled ledger is exactly
		// the run whose trace is worth reading.
		if derr := dump(); err == nil {
			err = derr
		}
		holdOpen()
		return err
	}
	if *shards != 1 {
		return fmt.Errorf("-shards applies to chaos runs; pass -faults as well")
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

	if err := dump(); err != nil {
		return err
	}
	holdOpen()
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

// chaosProver is the surface runChaos needs from either a single
// BatchProver or a ShardedProver.
type chaosProver interface {
	SetResilience(*batchzk.Resilience)
	ProveBatch([]batchzk.Job) []batchzk.Result
	Verify([]batchzk.Element, *batchzk.Proof) error
	Stats() batchzk.ProverStats
	Quarantined() []batchzk.QuarantinedJob
}

// runChaos streams a batch of proof jobs through the resilient prover
// under an injected fault plan and reports how the pipeline coped: what
// fired, what was retried, what was quarantined, and whether every
// surviving proof still verifies. The same -faults/-fault-seed pair
// replays the identical fault plan; -shards routes the same plan through
// a sharded prover.
func runChaos(spec string, seed uint64, jobs, shards int, stdout io.Writer) error {
	if jobs < 1 {
		return fmt.Errorf("chaos run needs at least one job, got %d", jobs)
	}
	inj, err := batchzk.ParseFaultSpec(spec, seed)
	if err != nil {
		return err
	}
	c, err := batchzk.RandomCircuit(256, 2, 2, int64(seed))
	if err != nil {
		return err
	}
	p, err := batchzk.Setup(c)
	if err != nil {
		return err
	}
	const depth = 4
	var bp chaosProver
	if shards > 1 {
		sp, err := batchzk.NewShardedProver(c, p, shards, depth)
		if err != nil {
			return err
		}
		bp = sp
	} else {
		single, err := batchzk.NewBatchProver(c, p, depth)
		if err != nil {
			return err
		}
		bp = single
	}
	res := batchzk.DefaultResilience()
	res.Injector = inj
	bp.SetResilience(res)

	batch := make([]batchzk.Job, jobs)
	for i := range batch {
		batch[i] = batchzk.Job{ID: i, Public: batchzk.RandVector(2), Secret: batchzk.RandVector(2)}
	}
	results := bp.ProveBatch(batch)

	verified := 0
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		if err := bp.Verify(batch[i].Public, r.Proof); err != nil {
			return fmt.Errorf("job %d survived the chaos run but its proof does not verify: %w", r.ID, err)
		}
		verified++
	}

	st := bp.Stats()
	fmt.Fprintf(stdout, "chaos run: spec=%q seed=%d jobs=%d shards=%d\n", spec, seed, jobs, shards)
	fmt.Fprintf(stdout, "  completed=%d failed=%d retries=%d quarantined=%d timeouts=%d panics-recovered=%d\n",
		st.Completed, st.Failed, st.Retries, st.Quarantined, st.Timeouts, st.PanicsRecovered)
	fmt.Fprintf(stdout, "  faults: %s\n", inj.Summary())
	for _, q := range bp.Quarantined() {
		fmt.Fprintf(stdout, "  dead-letter: job %d at stage %s after %d attempt(s): %v\n", q.ID, q.Stage, q.Attempts, q.Err)
	}
	fmt.Fprintf(stdout, "  %d/%d surviving proofs verified\n", verified, int(st.Completed))

	if ls := inj.Stats(); ls.Pending != 0 || inj.Conflicts() != 0 {
		return fmt.Errorf("fault ledger not reconciled: %d pending, %d conflicts", ls.Pending, inj.Conflicts())
	}
	return nil
}
