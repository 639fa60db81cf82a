package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/par"
	"batchzk/internal/pcs"
	"batchzk/internal/poly"
	"batchzk/internal/protocol"
	"batchzk/internal/service"
	"batchzk/internal/sha2"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// The traced run. Nothing outside this directory is touched, so every
// layer is timed from outside: the four protocol stages around their
// public calls, and each kernel by replaying its public function on the
// shapes the proof uses, with seeded tables and fresh transcripts.

// calibrated keeps the calibration loops' results live.
var calibrated field.Element

// calibrate times the scalar operations every kernel is made of.
func calibrate(rng *rand.Rand) map[string]float64 {
	xy := randElements(rng, 2)
	x, y := xy[0], xy[1]
	perOp := func(n int, f func()) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			d := float64(timeIt(func() {
				for i := 0; i < n; i++ {
					f()
				}
			}).Nanoseconds()) / float64(n)
			if rep == 0 || d < best {
				best = d
			}
		}
		return best
	}
	var block [sha2.BlockSize]byte
	out := map[string]float64{
		"field.mul_ns":     perOp(1<<19, func() { x.Mul(&x, &y) }),
		"field.add_ns":     perOp(1<<19, func() { x.Add(&x, &y) }),
		"field.inverse_ns": perOp(1<<9, func() { x.Inverse(&x) }),
		"sha2.compress_ns": perOp(1<<16, func() { d := sha2.Compress(&block); block[0] = d[0] }),
	}
	calibrated = x
	return out
}

// probe holds seeded tables of the proof's shapes for the kernel replays.
type probe struct {
	*fixture
	enc        *encoder.Encoder
	tau, sigma []field.Element
	l, r, o, v *poly.Multilinear
}

func newProbe(f *fixture, rng *rand.Rand) (*probe, error) {
	enc, err := encoder.Cached(f.p.PCS.NumCols, f.p.PCS.Enc)
	if err != nil {
		return nil, fmt.Errorf("encoder: %w", err)
	}
	gateVars, wireVars := bits.Len(uint(f.p.NumGates))-1, bits.Len(uint(f.p.NumWires))-1
	pr := &probe{fixture: f, enc: enc, tau: randElements(rng, gateVars), sigma: randElements(rng, wireVars)}
	table := func(n int) *poly.Multilinear {
		m, terr := poly.NewMultilinear(randElements(rng, n))
		if err == nil {
			err = terr
		}
		return m
	}
	pr.l, pr.r, pr.o, pr.v = table(f.p.NumGates), table(f.p.NumGates), table(f.p.NumGates), table(f.p.NumWires)
	return pr, err
}

// stageSpans are the four pipeline stages, as protocol.InFlight runs them.
var stageSpans = [4]string{"protocol.commit", "protocol.gate_sumcheck", "protocol.linear_sumcheck", "protocol.opening"}

// traceJob proves one job stage by stage inside spans, round-trips and
// verifies the proof, proves the same job once more with no spans (the
// tracing-overhead reference), and replays the kernels. It returns the
// traced and the untraced proving time.
func (pr *probe) traceJob(tr *tracer, job int, ck *checker) (traced, untraced time.Duration, err error) {
	in := pr.pool[job%len(pr.pool)]
	plain := func() {
		untraced = timeIt(func() {
			if pr.w.Streaming {
				var w circuit.Assignment
				if w, err = pr.c.Evaluate(in.Public, in.Secret); err == nil {
					_, err = protocol.ProveWitnessStreaming(pr.c, pr.p, w)
				}
			} else {
				_, err = protocol.Prove(pr.c, pr.p, in.Public, in.Secret)
			}
		})
	}
	// Whichever of the two runs second finds the caches warm, so they
	// take turns going first.
	if job%2 == 1 {
		if plain(); err != nil {
			return 0, 0, err
		}
	}
	root := tr.begin("job", -1, job)
	var w circuit.Assignment
	traced += tr.time("circuit.evaluate", root, job, func() { w, err = pr.c.Evaluate(in.Public, in.Secret) })
	if err != nil {
		return 0, 0, err
	}
	var fl *protocol.InFlight
	var proof *protocol.Proof
	stages := [4]func(){
		func() {
			if pr.w.Streaming {
				fl, err = protocol.StartProofStreaming(pr.c, pr.p, w)
			} else {
				fl, err = protocol.StartProof(pr.c, pr.p, w)
			}
		},
		func() { err = fl.RunHadamard() },
		func() { err = fl.RunLinear() },
		func() { proof, err = fl.Finish() },
	}
	for i, stage := range stages {
		traced += tr.time(stageSpans[i], root, job, stage)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", stageSpans[i], err)
		}
	}
	var wire []byte
	tr.time("protocol.encode", root, job, func() { wire, err = proof.MarshalBinary() })
	if err != nil {
		return 0, 0, err
	}
	var back protocol.Proof
	tr.time("protocol.decode", root, job, func() { err = back.UnmarshalBinary(wire) })
	if err != nil {
		return 0, 0, err
	}
	tr.time("protocol.verify", root, job, func() { err = protocol.Verify(pr.c, pr.p, in.Public, &back) })
	if err != nil {
		return 0, 0, err
	}
	tr.end(root)
	ck.rec.Attempted++
	ck.check(job, nil, wire)
	if job%2 == 0 {
		if plain(); err != nil {
			return 0, 0, err
		}
	}
	return traced, untraced, pr.replay(tr, job, w)
}

// replay runs each kernel of the proof once, as a child of a `replay`
// span; work between kernels (padding, transposing) is the span's self time.
func (pr *probe) replay(tr *tracer, job int, w circuit.Assignment) error {
	pp := pr.p.PCS
	padded := make([]field.Element, pr.p.NumWires)
	copy(padded, w)
	root := tr.begin("replay", -1, job)
	var err error
	kernel := func(name string, f func()) {
		if err == nil {
			tr.time(name, root, job, f)
		}
	}
	fresh := func() *transcript.Transcript { return transcript.New("batchzk/benchmark") }

	if pr.w.Streaming {
		var ss *pcs.StreamState
		kernel("pcs.stream_commit", func() {
			var sc *pcs.StreamingCommitter
			if sc, err = pcs.NewStreamingCommitter(pp, pcs.RetainTree); err != nil {
				return
			}
			if err = sc.AddChunk(padded); err == nil {
				ss, err = sc.Finish()
			}
		})
		kernel("pcs.stream_prove_eval", func() {
			rowAt := func(r int) []field.Element { return padded[r*pp.NumCols : (r+1)*pp.NumCols] }
			_, _, err = ss.ProveEval(rowAt, pr.sigma, fresh())
		})
	} else {
		encoded := make([][]field.Element, pp.NumRows)
		kernel("encoder.encode_rows", func() {
			k := par.Chunks(0, pp.NumRows)
			errs := make([]error, k)
			par.ForChunks(k, pp.NumRows, func(c, lo, hi int) {
				for r := lo; r < hi && errs[c] == nil; r++ {
					encoded[r], errs[c] = pr.enc.Encode(padded[r*pp.NumCols : (r+1)*pp.NumCols])
				}
			})
			for _, e := range errs {
				if e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return err
		}
		cols := make([][]field.Element, pr.enc.CodewordLen())
		for j := range cols {
			cols[j] = make([]field.Element, pp.NumRows)
			for r := range encoded {
				cols[j][r] = encoded[r][j]
			}
		}
		var leaves []sha2.Digest
		kernel("merkle.hash_columns", func() { leaves = merkle.HashColumns(cols) })
		kernel("merkle.build", func() { _, err = merkle.BuildFromDigests(leaves) })
		var st *pcs.ProverState
		kernel("pcs.commit", func() { st, err = pcs.Commit(padded, pp) })
		kernel("pcs.prove_eval", func() { _, _, err = st.ProveEval(pr.sigma, fresh()) })
	}

	var eq *poly.Multilinear
	kernel("poly.evaluate", func() { _, err = pr.o.Evaluate(pr.tau) })
	kernel("poly.eq_table", func() { eq, err = poly.NewMultilinear(poly.EqTable(pr.tau)) })
	kernel("sumcheck.prove_triple", func() { _, _, _, _, err = sumcheck.ProveTriple(eq, pr.l, pr.r, fresh()) })
	wPoly, perr := poly.NewMultilinear(padded)
	if err == nil {
		err = perr
	}
	kernel("sumcheck.prove_product", func() { _, _, _, _, err = sumcheck.ProveProduct(pr.v, wPoly, fresh()) })
	tr.end(root)
	return err
}

// counts are the per-proof operation counts the shapes imply.
func (pr *probe) counts() (madds, compressions float64) {
	pp := pr.p.PCS
	madds = float64(pp.NumRows * pr.enc.WorkNonZeros())
	// One column of NumRows 32-byte elements, SHA-256 padding included.
	perColumn := (pp.NumRows*field.Bytes+8)/sha2.BlockSize + 1
	cw := pr.enc.CodewordLen()
	compressions = float64(cw*perColumn + cw - 1)
	return madds, compressions
}

// runtimeCounters is read at phase boundaries, next to the spans.
type runtimeCounters struct {
	at         time.Time
	par        par.RuntimeStats
	totalAlloc uint64
	gcCPU      float64
	allCPU     float64
}

func readCounters() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	rc := runtimeCounters{at: time.Now(), par: par.Stats(), totalAlloc: m.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU, rc.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return rc
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pipelineMetrics turns the counters read around a loaded section of
// `proofs` proofs into the core.* and par.* rows.
func pipelineMetrics(v map[string]float64, before, after runtimeCounters, s0, s1 core.Stats, proofs int) {
	wall := after.at.Sub(before.at)
	var busy float64
	for i := range s1.StageNs {
		busy += float64(s1.StageNs[i] - s0.StageNs[i])
	}
	for i, name := range [4]string{"commit", "gate_sumcheck", "linear_sumcheck", "opening"} {
		v["core.stage_share."+name] = ratio(float64(s1.StageNs[i]-s0.StageNs[i]), busy)
	}
	v["core.overlap"] = ratio(busy, float64(wall.Nanoseconds()))
	v["core.retries"] = float64(s1.Retries - s0.Retries)
	v["core.failed"] = float64(s1.Failed - s0.Failed)
	v["core.alloc_mib_per_proof"] = ratio(float64(after.totalAlloc-before.totalAlloc)/(1<<20), float64(proofs))
	v["core.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU)
	d := after.par.Delta(before.par)
	v["par.calls_per_proof"] = ratio(float64(d.Calls), float64(proofs))
	v["par.chunks_per_call"] = ratio(float64(d.Chunks), float64(d.Calls))
	v["par.inline_frac"] = ratio(float64(d.Inline), float64(d.Chunks))
	v["core.pipeline_gain"] = ratio(float64(proofs), wall.Seconds()) // × protocol.prove_ms later
}

// traceLayers runs traced jobs for the given time (an even number, at
// least four) and fills the kernel, protocol and trace rows.
func traceLayers(f *fixture, o options, budget time.Duration, ck *checker, tr *tracer, v map[string]float64) error {
	deadline := time.Now().Add(budget)
	rng := rand.New(rand.NewSource(o.seed))
	for k, x := range calibrate(rng) {
		v[k] = x
	}
	pr, err := newProbe(f, rng)
	if err != nil {
		return err
	}
	var traced, untraced time.Duration
	for job := 0; job < 4 || job%2 == 1 || time.Now().Before(deadline); job++ {
		t, u, err := pr.traceJob(tr, job, ck)
		if err != nil {
			return fmt.Errorf("traced job %d: %w", job, err)
		}
		traced, untraced = traced+t, untraced+u
	}
	if err := checkTree(tr.spans); err != nil {
		return err
	}
	by := durationsByName(tr.spans)
	for name, d := range by {
		if name != "job" && name != "replay" && name != "request" {
			v[name+"_ms"] = median(d)
		}
	}
	sum := func(names ...string) (total float64) {
		for _, n := range names {
			for _, d := range by[n] {
				total += d
			}
		}
		return total
	}
	// Kernels that make up the stages, without the composites that contain
	// them; the eq table is built once in the gate stage and twice in the
	// linear stage.
	kernels := sum("pcs.stream_commit", "pcs.stream_prove_eval", "encoder.encode_rows", "merkle.hash_columns",
		"merkle.build", "pcs.prove_eval", "poly.evaluate", "sumcheck.prove_triple", "sumcheck.prove_product") +
		3*sum("poly.eq_table")
	v["protocol.unattributed_frac"] = 1 - ratio(kernels, sum(stageSpans[:]...))
	jobs := float64(len(by["job"]))
	v["protocol.prove_ms"] = ms(traced) / jobs
	v["trace.overhead_frac"] = ratio(float64(traced), float64(untraced)) - 1
	v["core.pipeline_gain"] *= v["protocol.prove_ms"] / 1000
	v["encoder.madds"], v["merkle.compressions"] = pr.counts()
	return nil
}

// finishTrace writes the trace file, if asked for, and sets the metrics.
func finishTrace(w workload, o options, rec *record, tr *tracer, v map[string]float64) error {
	rec.Timings = make(map[string]summary)
	for name, d := range durationsByName(tr.spans) {
		rec.Timings[name+"_ms"] = summarize(d)
	}
	rec.set(perLayer, v)
	if o.traceOut == "" {
		return nil
	}
	return writeTrace(o.traceOut, traceFile{Workload: w.Name, Seed: o.seed, Spans: tr.spans, SelfNs: selfTimes(tr.spans), Counters: v})
}

// traceProver is the traced run of a prover workload: a loaded closed-loop
// section with counters read at its boundaries, then the traced jobs.
func traceProver(w workload, o options, rec *record) error {
	rig, _, err := setupProver(w, o.seed)
	if err != nil {
		return err
	}
	ck := newChecker(rig.fixture, rec)
	v := make(map[string]float64)

	runtime.GC()
	s0, before := rig.bp.Stats(), readCounters()
	l := rig.drive(o.span(0.35), 0, w.Pool)
	s1, after := rig.bp.Stats(), readCounters()
	pipelineMetrics(v, before, after, s0, s1, len(l.results))
	l.verify(ck, "hi", rec)

	tr := newTracer()
	if err := traceLayers(rig.fixture, o, o.span(0.6), ck, tr, v); err != nil {
		return err
	}
	ck.mutant(o.seed)
	rec.Digest = ck.digest()
	return finishTrace(w, o, rec, tr, v)
}

// traceServe is the traced run of the gateway workload: the three load
// phases with client-side spans per job and gateway counters read at the
// phase boundaries, then the traced jobs at the same circuit.
func traceServe(w workload, o options, rec *record) error {
	rig, _, err := setupServe(w, o.seed)
	if err != nil {
		return err
	}
	defer rig.close()
	ck := newChecker(rig.fixture, rec)
	v := make(map[string]float64)
	rng := rand.New(rand.NewSource(o.seed))
	tr := newTracer()

	g0 := rig.gw.Stats()
	var all []serveStats
	phase := func(name string, share, rate float64, minJobs int) (serveStats, service.GatewayStats) {
		jobs := rig.phase(o.span(share), rate, minJobs, rng)
		for _, j := range jobs {
			if !j.ok() {
				continue
			}
			// The sender stamps acked and the fetcher stamps event. On a busy
			// host the sender can be descheduled between reading the 202 and
			// stamping it, past the terminal event: the wait was then nil.
			acked := j.acked
			if acked.After(j.event) {
				acked = j.event
			}
			root := tr.add("request", j.due, j.fetched, -1, j.seq)
			tr.add("loadgen.late", j.due, j.sent, root, j.seq)
			tr.add("service.submit", j.sent, acked, root, j.seq)
			tr.add("service.wait", acked, j.event, root, j.seq)
			tr.add("service.fetch", j.event, j.fetched, root, j.seq)
		}
		st := rig.account(name, jobs, ck, rec)
		all = append(all, st)
		g1 := rig.gw.Stats()
		v["service.batch_occupancy_"+name] = ratio(float64(g1.Accepted-g0.Accepted), float64((g1.Batches-g0.Batches)*serveBatch))
		v["loadgen.late_"+name+"_p99_ms"] = percentile(st.late, 0.99)
		v["service.lat_"+name+"_p90_ms"] = percentile(st.latency, 0.90)
		v["service.lat_"+name+"_p99_ms"] = percentile(st.latency, 0.99)
		g0 = g1
		return st, g1
	}
	lo, _ := phase("lo", 0.2, w.LoRate, 3)
	phase("hi", 0.25, w.HiRate, w.Pool)
	runtime.GC()
	s0, before := rig.gw.ProverStats(), readCounters()
	sat, g := phase("sat", 0.2, 0, 3)
	pipelineMetrics(v, before, readCounters(), s0, rig.gw.ProverStats(), sat.count.Succeeded)

	v["service.accepted"] = float64(g.Accepted)
	v["service.rejected"] = float64(g.RejectedQuota + g.RejectedQueue + g.RejectedDraining)
	v["service.batches"] = float64(g.Batches)
	var sent int
	for _, st := range all {
		sent += st.count.Sent
	}
	v["loadgen.sent"] = float64(sent)
	v["service.gateway_latency_p50_ms"] = median(lo.gateway)
	v["service.http_overhead_p50_ms"] = median(lo.http)
	v["service.submit_p50_ms"] = median(lo.submit)
	v["service.fetch_p50_ms"] = median(lo.fetch)

	if err := traceLayers(rig.fixture, o, o.span(0.3), ck, tr, v); err != nil {
		return err
	}
	// Derived, not measured: what a lightly loaded job spends in the gateway
	// beyond one sequential proof (batching window, queueing, hand-offs).
	v["service.wait_p50_ms"] = v["service.gateway_latency_p50_ms"] - v["protocol.prove_ms"]
	ck.mutant(o.seed)
	rec.Digest = ck.digest()
	return finishTrace(w, o, rec, tr, v)
}
