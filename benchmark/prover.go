package main

import (
	"fmt"
	"runtime"
	"time"

	"batchzk/internal/core"
)

// proverRig is a constructed closed-loop prover workload.
type proverRig struct {
	*fixture
	bp  *core.BatchProver
	seq int // sequence number of the next job
}

// setupProver times what a user pays before the first timed proof: circuit
// build, protocol.Setup, prover construction and the warm-up proofs that
// fill encoder.Cached and the Merkle level shapes.
func setupProver(w workload, seed int64) (*proverRig, time.Duration, error) {
	pool := makePool(seed, w.Pool)
	start := time.Now()
	f, err := buildProblem(w, seed, pool)
	if err != nil {
		return nil, 0, err
	}
	bp, err := core.NewBatchProver(f.c, f.p, proverDepth)
	if err != nil {
		return nil, 0, fmt.Errorf("new batch prover: %w", err)
	}
	bp.SetStreamingCommit(w.Streaming)
	rig := &proverRig{fixture: f, bp: bp}
	for _, res := range rig.drive(0, 0, w.Warmup).results {
		if res.Err != nil {
			return nil, 0, fmt.Errorf("warm-up job %d: %w", res.ID, res.Err)
		}
	}
	rig.seq = 0
	return rig, time.Since(start), nil
}

// loop is what one ProveStream call produced. Results arrive in
// submission order, so handed[i] and emitted[i] belong to the same job.
type loop struct {
	start   time.Time
	first   int // sequence number of job 0
	handed  []time.Time
	emitted []time.Time
	results []core.Result
}

// wall runs from the start of the loop to the last emitted proof.
func (l *loop) wall() time.Duration { return l.emitted[len(l.emitted)-1].Sub(l.start) }

// latenciesMs is, per job, `next` handing it out → `emit` of its result.
func (l *loop) latenciesMs() []float64 {
	out := make([]float64, len(l.emitted))
	for i := range out {
		out[i] = ms(l.emitted[i].Sub(l.handed[i]))
	}
	return out
}

// drive pulls jobs through ProveStream until handout has passed and at
// least minJobs were handed out. window > 0 caps the jobs outstanding (1
// is the unloaded case); 0 leaves the pipeline's own depth as the bound.
func (r *proverRig) drive(handout time.Duration, window, minJobs int) *loop {
	l := &loop{start: time.Now(), first: r.seq}
	var slots chan struct{}
	if window > 0 {
		slots = make(chan struct{}, window)
		for i := 0; i < window; i++ {
			slots <- struct{}{}
		}
	}
	next := func() (core.Job, bool) {
		if slots != nil {
			<-slots
		}
		n := len(l.handed)
		if n >= minJobs && time.Since(l.start) >= handout {
			return core.Job{}, false
		}
		job := r.job(l.first + n)
		l.handed = append(l.handed, time.Now())
		return job, true
	}
	emit := func(res core.Result) {
		l.emitted = append(l.emitted, time.Now())
		l.results = append(l.results, res)
		if slots != nil {
			slots <- struct{}{}
		}
	}
	r.bp.ProveStream(next, emit)
	r.seq += len(l.handed)
	return l
}

// verify runs the correctness gate over a finished loop, off the clock.
func (l *loop) verify(ck *checker, phase string, rec *record) {
	pc := phaseCount{Phase: phase, Seconds: l.wall().Seconds(), Offered: len(l.handed), Sent: len(l.handed)}
	before := rec.Failed
	for i, res := range l.results {
		if res.Err != nil {
			rec.fail(fmt.Sprintf("job %d: %v", res.ID, res.Err))
			continue
		}
		ck.check(l.first+i, res.Proof, nil)
	}
	for i := len(l.results); i < len(l.handed); i++ {
		rec.fail(fmt.Sprintf("job %d: no result", l.first+i))
	}
	pc.Failed = rec.Failed - before
	pc.Succeeded = pc.Sent - pc.Failed
	rec.Attempted += pc.Sent
	rec.Phases = append(rec.Phases, pc)
}

// steady returns the jobs that completed while the pipeline was full: from
// the first emitted proof to the end of hand-out. Filling and draining take
// seconds at 2^16 gates and are left out of the rate and the latency.
func (l *loop) steady() []sample {
	stop := l.handed[len(l.handed)-1]
	var out []sample
	for i, e := range l.emitted {
		if e.After(stop) && len(out) >= 2 {
			break
		}
		out = append(out, sample{done: e, latencyMs: ms(e.Sub(l.handed[i]))})
	}
	return out
}

// runProver is the end-to-end (tracing off) run of a prover workload: an
// unloaded phase, one job at a time, then w.Reps repetitions of the
// saturated closed loop. Proofs are verified between repetitions, off the
// clock, so that no more than one repetition's proofs are ever held.
func runProver(w workload, o options, rec *record) error {
	var rig *proverRig
	setups, err := sampleSetups(func() (d time.Duration, err error) {
		rig, d, err = setupProver(w, o.seed)
		return d, err
	})
	if err != nil {
		return err
	}
	ck := newChecker(rig.fixture, rec)

	lo := rig.drive(o.span(0.15), 1, 3)
	loLat := lo.latenciesMs()
	lo.verify(ck, "lo", rec)

	budget := o.span(0.85) / time.Duration(w.Reps)
	drain := time.Duration(0)
	var rates, medians, hiLat []float64
	for rep := 0; rep < w.Reps; rep++ {
		runtime.GC()
		minJobs := 2
		if rep == 0 {
			minJobs = w.Pool // the digest needs every input proven once
		}
		l := rig.drive(budget-drain, 0, minJobs)
		drain = l.emitted[len(l.emitted)-1].Sub(l.handed[len(l.handed)-1])
		if drain > budget/2 {
			drain = budget / 2
		}
		st := l.steady()
		r, m := windows(st, w.Window)
		rates, medians = append(rates, r...), append(medians, m...)
		hiLat = append(hiLat, latenciesOf(st)...)
		l.verify(ck, "hi", rec)
	}
	rss := peakRSSMiB()
	ck.mutant(o.seed)
	rec.Digest = ck.digest()

	rec.Reps = w.Reps
	rec.Timings = map[string]summary{
		"setup_s":          summarize(setups),
		"proofs_per_s":     summarize(rates),
		"lat_lo_ms":        summarize(loLat),
		"lat_hi_ms":        summarize(hiLat),
		"lat_hi_window_ms": summarize(medians),
		"verify_ms":        summarize(ck.verifyMs),
	}
	rec.Tails = map[string]float64{"lat_hi_p90_ms": percentile(hiLat, 0.90)}
	rec.set(endToEnd, map[string]float64{
		"setup_s":           median(setups),
		"proofs_per_s":      fastSide(rates, true),
		"lat_lo_p50_ms":     median(loLat),
		"lat_hi_p50_ms":     fastSide(medians, false),
		"slo_goodput_per_s": fastSide(rates, true) * ratio(float64(countWithin(hiLat, w.SLOms)), float64(len(hiLat))),
		"verify_ms_p25":     fastSide(ck.verifyMs, false),
		"peak_rss_mib":      rss,
		"proof_kib":         median(ck.sizes),
	})
	return nil
}
