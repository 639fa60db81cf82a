package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/service"
	"batchzk/internal/telemetry"
)

// jobTimeout is how long a phase waits for its last results before the
// jobs still outstanding count as failed.
const jobTimeout = 20 * time.Second

// serveJob is the load generator's account of one job: POST /v1/jobs →
// terminal event on /v1/stream → GET /v1/jobs/{id}/proof. The sender
// writes the first group of fields, the fetcher the second; the sender
// reads the second only after the job came back on the done channel.
type serveJob struct {
	seq              int
	due, sent, acked time.Time
	refused          string // why the submission did not get a 202

	event, fetched time.Time
	gatewayNs      int64
	wire           []byte
	fetchErr       string

	gen      int  // the phase that sent it
	finished bool // came back on the done channel
}

func (j *serveJob) ok() bool { return j.finished && j.refused == "" && j.fetchErr == "" }

// latencyMs runs from the instant the send was due to the last proof byte.
func (j *serveJob) latencyMs() float64 { return ms(j.fetched.Sub(j.due)) }

// serveRig is the gateway behind a loopback HTTP server in this process,
// plus the load generator's three connections: sender, fetcher, stream.
type serveRig struct {
	*fixture
	gw     *service.Gateway
	srv    *http.Server
	base   string
	client *http.Client
	bodies [][]byte // POST body per pool index

	stopStream context.CancelFunc
	readers    sync.WaitGroup
	// events and done are sized so that neither the stream reader nor the
	// fetcher ever blocks on the load generator: an open-loop phase may
	// have every job it sent outstanding at once.
	events chan service.Event
	done   chan *serveJob

	mu       sync.Mutex
	inflight map[telemetry.TraceID]*serveJob
	trace    telemetry.TraceID
	seq      int
	gen      int // the current phase; late results of an earlier one are ignored
}

const maxOutstanding = 1 << 16

// setupServe times circuit build, protocol.Setup, sharded prover and
// gateway construction, server start and the warm-up jobs over HTTP.
func setupServe(w workload, seed int64) (*serveRig, time.Duration, error) {
	pool := makePool(seed, w.Pool)
	bodies := make([][]byte, len(pool))
	for i, in := range pool {
		req := service.SubmitRequest{Public: decimal(in.Public), Secret: decimal(in.Secret)}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, 0, fmt.Errorf("encode job body: %w", err)
		}
		bodies[i] = b
	}
	start := time.Now()
	f, err := buildProblem(w, seed, pool)
	if err != nil {
		return nil, 0, err
	}
	prover, err := core.NewShardedProver(f.c, f.p, serveShards, proverDepth)
	if err != nil {
		return nil, 0, fmt.Errorf("new sharded prover: %w", err)
	}
	gw, err := service.NewGateway(prover, service.Config{MaxBatch: serveBatch, MaxWait: 2 * time.Millisecond, QueueCap: maxOutstanding})
	if err != nil {
		return nil, 0, fmt.Errorf("new gateway: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Drain()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	r := &serveRig{
		fixture: f, gw: gw, bodies: bodies,
		srv:      &http.Server{Handler: gw.Handler()},
		base:     "http://" + ln.Addr().String(),
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		events:   make(chan service.Event, maxOutstanding),
		done:     make(chan *serveJob, maxOutstanding),
		inflight: make(map[telemetry.TraceID]*serveJob),
	}
	r.readers.Add(1)
	go func() {
		defer r.readers.Done()
		_ = r.srv.Serve(ln) // always http.ErrServerClosed, after close
	}()
	if err := r.subscribe(); err != nil {
		r.close()
		return nil, 0, err
	}
	r.readers.Add(1)
	go r.fetcher()
	for _, j := range r.phase(0, 0, w.Warmup, nil) {
		if !j.ok() {
			r.close()
			return nil, 0, fmt.Errorf("warm-up job %d: %s%s", j.seq, j.refused, j.fetchErr)
		}
	}
	r.seq = 0
	return r, time.Since(start), nil
}

func decimal(v []field.Element) []string {
	out := make([]string, len(v))
	for i := range v {
		out[i] = v[i].BigInt().String()
	}
	return out
}

// subscribe opens the one long-lived /v1/stream connection and starts the
// goroutine that turns its NDJSON lines into events.
func (r *serveRig) subscribe() error {
	ctx, cancel := context.WithCancel(context.Background())
	r.stopStream = cancel
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/v1/stream", nil)
	if err != nil {
		return fmt.Errorf("stream request: %w", err)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("open stream: %w", err)
	}
	r.readers.Add(1)
	go func() {
		defer r.readers.Done()
		defer close(r.events)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev service.Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.JobID != "" {
				r.events <- ev
			}
		}
	}()
	return nil
}

// fetcher downloads the proof of every job whose terminal event arrives.
// The job is found by the trace id the sender chose for it, which the
// gateway adopts and echoes, so the sender never has to win a race
// against the event.
func (r *serveRig) fetcher() {
	defer r.readers.Done()
	for ev := range r.events {
		now := time.Now()
		r.mu.Lock()
		j := r.inflight[ev.TraceID]
		delete(r.inflight, ev.TraceID)
		r.mu.Unlock()
		if j == nil {
			continue
		}
		j.event, j.gatewayNs = now, ev.LatencyNs
		if ev.Status != service.StatusDone {
			j.fetchErr = fmt.Sprintf("job ended %s: %s", ev.Status, ev.Err)
		} else if j.wire, j.fetchErr = r.fetch(ev.JobID); j.fetchErr == "" {
			j.fetched = time.Now()
		}
		r.done <- j
	}
}

func (r *serveRig) fetch(id string) ([]byte, string) {
	resp, err := r.client.Get(r.base + "/v1/jobs/" + id + "/proof")
	if err != nil {
		return nil, "fetch: " + err.Error()
	}
	defer resp.Body.Close()
	wire, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "fetch: " + err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "fetch: " + resp.Status
	}
	return wire, ""
}

// submit posts one job that was due at the given instant.
func (r *serveRig) submit(due time.Time) *serveJob {
	j := &serveJob{seq: r.seq, due: due, gen: r.gen}
	r.seq++
	r.mu.Lock()
	r.trace++
	trace := r.trace
	r.inflight[trace] = j
	r.mu.Unlock()

	refuse := func(why string) *serveJob {
		r.mu.Lock()
		delete(r.inflight, trace)
		r.mu.Unlock()
		j.refused = why
		return j
	}
	req, err := http.NewRequest(http.MethodPost, r.base+"/v1/jobs", bytes.NewReader(r.bodies[j.seq%len(r.bodies)]))
	if err != nil {
		return refuse("submit: " + err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "t"+strconv.Itoa(j.seq%2)) // two equal tenants
	req.Header.Set("X-Trace-Id", strconv.FormatUint(uint64(trace), 10))
	j.sent = time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return refuse("submit: " + err.Error())
	}
	_, _ = io.Copy(io.Discard, resp.Body) // the acknowledgment carries nothing the event does not
	resp.Body.Close()
	j.acked = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		return refuse("submit: " + resp.Status)
	}
	return j
}

// phase runs one load phase and returns its jobs. With rate > 0 it is an
// open loop: Poisson arrivals at rate jobs/s from rng, each sent when due
// whatever the state of earlier jobs. With rate == 0 it is a closed loop
// that keeps `outstanding` jobs in flight. It sends for dur and at least
// minJobs jobs, then waits for the results still outstanding.
func (r *serveRig) phase(dur time.Duration, rate float64, minJobs int, rng *rand.Rand) []*serveJob {
	var jobs []*serveJob
	pending := 0
	runtime.GC() // every phase starts from a collected heap, off the clock
	r.gen++
	reap := func(j *serveJob) {
		if j.gen == r.gen {
			j.finished = true
			pending--
		}
	}
	start := time.Now()
	due := start
	for {
		if rate > 0 {
			due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
			if len(jobs) >= minJobs && due.Sub(start) >= dur {
				break
			}
			time.Sleep(time.Until(due))
		} else {
			if len(jobs) >= minJobs && time.Since(start) >= dur {
				break
			}
			if pending == outstanding {
				reap(<-r.done)
			}
			due = time.Now()
		}
		j := r.submit(due)
		jobs = append(jobs, j)
		if j.refused == "" {
			pending++
		}
		for drained := false; !drained; {
			select {
			case d := <-r.done:
				reap(d)
			default:
				drained = true
			}
		}
	}
	timeout := time.After(jobTimeout)
	for pending > 0 {
		select {
		case d := <-r.done:
			reap(d)
		case <-timeout:
			r.mu.Lock()
			for k := range r.inflight {
				delete(r.inflight, k)
			}
			r.mu.Unlock()
			pending = 0
		}
	}
	return jobs
}

// close stops the load generator's goroutines, the server and the gateway,
// and returns when all of them have ended.
func (r *serveRig) close() {
	if r.stopStream != nil {
		r.stopStream()
	}
	r.srv.Close()
	r.readers.Wait()
	r.gw.Drain()
	r.client.CloseIdleConnections()
}

// serveStats condenses one phase of serve jobs.
type serveStats struct {
	count   phaseCount
	done    []sample  // successful jobs, in order of the last proof byte
	latency []float64 // ms, the same jobs
	late    []float64 // ms the generator sent after the due time
	gateway []float64 // ms, latency_ns of the stream event
	http    []float64 // ms, client latency − gateway latency
	submit  []float64 // ms, POST round trip
	fetch   []float64 // ms, event → last proof byte
	wall    time.Duration
}

// account runs the correctness gate over a finished phase, off the clock,
// and condenses its timings. The fetched bytes are dropped afterwards.
func (r *serveRig) account(name string, jobs []*serveJob, ck *checker, rec *record) serveStats {
	st := serveStats{count: phaseCount{Phase: name, Offered: len(jobs)}}
	before := rec.Failed
	for _, j := range jobs {
		if j.refused == "" {
			st.count.Sent++
		}
		if !j.ok() {
			rec.fail(fmt.Sprintf("job %d: %s%s (finished=%v)", j.seq, j.refused, j.fetchErr, j.finished))
			continue
		}
		ck.check(j.seq, nil, j.wire)
		j.wire = nil
		st.done = append(st.done, sample{done: j.fetched, latencyMs: j.latencyMs()})
		st.late = append(st.late, ms(j.sent.Sub(j.due)))
		st.gateway = append(st.gateway, float64(j.gatewayNs)/1e6)
		st.http = append(st.http, j.latencyMs()-float64(j.gatewayNs)/1e6)
		st.submit = append(st.submit, ms(j.acked.Sub(j.sent)))
		st.fetch = append(st.fetch, ms(j.fetched.Sub(j.event)))
	}
	sort.Slice(st.done, func(a, b int) bool { return st.done[a].done.Before(st.done[b].done) })
	st.latency = latenciesOf(st.done)
	if len(st.done) > 0 {
		st.wall = st.done[len(st.done)-1].done.Sub(jobs[0].due)
	}
	st.count.Seconds = st.wall.Seconds()
	st.count.Failed = rec.Failed - before
	st.count.Succeeded = st.count.Offered - st.count.Failed
	rec.Attempted += st.count.Offered
	rec.Phases = append(rec.Phases, st.count)
	return st
}

// runServe is the end-to-end (tracing off) run of the gateway workload:
// open loop at LoRate, open loop at HiRate, then the saturating closed loop.
func runServe(w workload, o options, rec *record) error {
	var rig *serveRig
	setups, err := sampleSetups(func() (d time.Duration, err error) {
		if rig != nil {
			rig.close()
		}
		rig, d, err = setupServe(w, o.seed)
		return d, err
	})
	if err != nil {
		return err
	}
	defer rig.close()
	ck := newChecker(rig.fixture, rec)
	rng := rand.New(rand.NewSource(o.seed))

	lo := rig.account("lo", rig.phase(o.span(0.3), w.LoRate, 3, rng), ck, rec)
	hi := rig.account("hi", rig.phase(o.span(0.4), w.HiRate, w.Pool, rng), ck, rec)
	// The gateway keeps every proof it made. Up to here the job count is
	// fixed by the two rates; the closed loop adds as many as the host is
	// fast, so memory is read before it.
	rss := peakRSSMiB()
	sat := rig.account("sat", rig.phase(o.span(0.3), 0, 3, nil), ck, rec)
	ck.mutant(o.seed)
	rec.Digest = ck.digest()
	if len(sat.done) < 2 || len(hi.done) < 2 {
		return fmt.Errorf("no job succeeded: %v", rec.Errors)
	}
	// The closed loop allocates 1.2 MiB per proof, so the collector runs a
	// few times a second: a rate window has to span several collections, or
	// the windows fall into two modes and their median flips between them.
	rates, _ := windows(sat.done, 4*w.Window)
	_, medians := windows(hi.done, w.Window)

	rec.Reps = 1
	rec.Timings = map[string]summary{
		"setup_s":          summarize(setups),
		"proofs_per_s":     summarize(rates),
		"lat_lo_ms":        summarize(lo.latency),
		"lat_hi_ms":        summarize(hi.latency),
		"lat_hi_window_ms": summarize(medians),
		"lat_sat_ms":       summarize(sat.latency),
		"late_lo_ms":       summarize(lo.late),
		"late_hi_ms":       summarize(hi.late),
		"verify_ms":        summarize(ck.verifyMs),
	}
	rec.Tails = map[string]float64{
		"lat_lo_p99_ms": percentile(lo.latency, 0.99), "lat_hi_p90_ms": percentile(hi.latency, 0.90),
		"lat_hi_p99_ms": percentile(hi.latency, 0.99), "late_lo_p99_ms": percentile(lo.late, 0.99),
		"late_hi_p99_ms": percentile(hi.late, 0.99),
	}
	rec.set(endToEnd, map[string]float64{
		"setup_s":           median(setups),
		"proofs_per_s":      fastSide(rates, true),
		"lat_lo_p50_ms":     median(lo.latency),
		"lat_hi_p50_ms":     fastSide(medians, false),
		"slo_goodput_per_s": float64(countWithin(hi.latency, w.SLOms)) / hi.wall.Seconds(),
		"verify_ms_p25":     fastSide(ck.verifyMs, false),
		"peak_rss_mib":      rss,
		"proof_kib":         median(ck.sizes),
	})
	return nil
}
