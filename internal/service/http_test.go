package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/protocol"
	"batchzk/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Gateway) {
	t.Helper()
	sp, _ := newTestProver(t, 1)
	gw, err := NewGateway(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		srv.Close()
		gw.Drain()
	})
	return srv, gw
}

func encodeElements(v []field.Element) []string {
	out := make([]string, len(v))
	for i := range v {
		out[i] = v[i].BigInt().String()
	}
	return out
}

func submitBody(n int) []byte {
	req := SubmitRequest{
		Public: encodeElements(field.RandVector(n)),
		Secret: encodeElements(field.RandVector(n)),
	}
	b, _ := json.Marshal(req)
	return b
}

func postJob(t *testing.T, base, tenant string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// Submit → poll round-trip: accepted jobs resolve to done with a
// verifiable proof and a consistent trace id across both responses —
// for one job, and for more jobs than one hand-off takes.
func TestHTTPSubmitPollRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		jobs int
	}{
		{"clean", 1},
		{"batched", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, gw := newTestServer(t, Config{MaxBatch: 2, MaxWait: time.Millisecond})
			for i := 0; i < tc.jobs; i++ {
				resp := postJob(t, srv.URL, "acme", submitBody(2), nil)
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit: %s", resp.Status)
				}
				var ack SubmitResponse
				if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
					t.Fatal(err)
				}
				if ack.JobID == "" || ack.Status != StatusQueued {
					t.Fatalf("bad ack: %+v", ack)
				}
				submitTrace := resp.Header.Get("X-Trace-Id")

				poll, err := http.Get(srv.URL + "/v1/jobs/" + ack.JobID + "?wait=10s")
				if err != nil {
					t.Fatal(err)
				}
				defer poll.Body.Close()
				if poll.StatusCode != http.StatusOK {
					t.Fatalf("poll: %s", poll.Status)
				}
				var jr JobResponse
				if err := json.NewDecoder(poll.Body).Decode(&jr); err != nil {
					t.Fatal(err)
				}
				if jr.Status != StatusDone {
					t.Fatalf("job %s ended %s (%s)", ack.JobID, jr.Status, jr.Err)
				}
				if jr.Tenant != "acme" || jr.LatencyNs <= 0 {
					t.Errorf("bad terminal record: %+v", jr.JobInfo)
				}
				if got := poll.Header.Get("X-Trace-Id"); submitTrace != "" && got != submitTrace {
					t.Errorf("trace id changed across poll: submit=%s poll=%s", submitTrace, got)
				}
				blob, err := base64.StdEncoding.DecodeString(jr.Proof)
				if err != nil || len(blob) == 0 {
					t.Fatalf("done job carries no decodable proof: %v", err)
				}
				var proof protocol.Proof
				if err := proof.UnmarshalBinary(blob); err != nil {
					t.Fatalf("served proof does not deserialize: %v", err)
				}
				if err := gw.VerifyJob(ack.JobID); err != nil {
					t.Fatalf("served proof of %s does not verify: %v", ack.JobID, err)
				}
			}
		})
	}
}

// A caller-supplied X-Trace-Id is adopted and echoed — the job keeps
// one flight-recorder timeline across the API boundary.
func TestHTTPTraceIDPropagation(t *testing.T) {
	sink := telemetry.NewSink(telemetry.Config{})
	sp, _ := newTestProver(t, 1)
	sp.SetTelemetry(sink)
	gw, err := NewGateway(sp, Config{MaxBatch: 2, MaxWait: time.Millisecond, Telemetry: sink})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	defer func() { srv.Close(); gw.Drain() }()

	const caller = "12345"
	resp := postJob(t, srv.URL, "acme", submitBody(2), map[string]string{"X-Trace-Id": caller})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != caller {
		t.Fatalf("response trace %s, want caller's %s", got, caller)
	}
	if _, ok := sink.FlightRecorder().Timeline(telemetry.TraceID(12345)); !ok {
		t.Error("caller's trace id has no flight-recorder timeline")
	}
}

// Oversized bodies answer 413, not 500 (and not a bare decode 400).
func TestHTTPRequestTooLarge(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxBatch: 2, MaxWait: time.Millisecond, MaxBody: 2048})
	big := make([]byte, 64*1024)
	for i := range big {
		big[i] = 'a'
	}
	body, _ := json.Marshal(map[string]any{"public": []string{string(big)}})
	resp := postJob(t, srv.URL, "acme", body, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %s, want 413", resp.Status)
	}
}

// Over-quota tenants get 429 with a Retry-After header; other tenants
// are unaffected (isolation).
func TestHTTPQuotaBackpressure(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		MaxBatch: 8, MaxWait: time.Millisecond,
		Quotas: map[string]QuotaSpec{"capped": {Burst: 2}}, // hard allowance
	})
	for i := 0; i < 2; i++ {
		resp := postJob(t, srv.URL, "capped", submitBody(2), nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
	}
	resp := postJob(t, srv.URL, "capped", submitBody(2), nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	other := postJob(t, srv.URL, "other", submitBody(2), nil)
	other.Body.Close()
	if other.StatusCode != http.StatusAccepted {
		t.Errorf("unrelated tenant rejected: %s", other.Status)
	}
}

// A full admission queue answers 429 + Retry-After.
func TestHTTPQueueFullBackpressure(t *testing.T) {
	// The prover takes no job, so the queue cannot clear: the pump's one
	// Take holds at most QueueCap jobs, and at most QueueCap more queue
	// behind it.
	sp := newStallProver()
	gw, err := NewGateway(sp, Config{MaxBatch: 1000, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		srv.Close()
		sp.releaseJobs()
		gw.Drain()
	})
	saw429 := false
	for i := 0; i < 6; i++ {
		resp := postJob(t, srv.URL, "acme", submitBody(2), nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if got := resp.Header.Get("Retry-After"); got != "1" {
				t.Errorf("queue-full 429 with Retry-After %q, want \"1\"", got)
			}
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Fatal("queue cap 2 never produced a 429 across 6 submissions")
	}
}

// /readyz answers 200 while the gateway accepts work, and 503 with its
// reason and a Retry-After hint while it cannot: draining (submissions
// 503), or a full admission queue (submissions 429). Both recover.
func TestHTTPDrainReadyz(t *testing.T) {
	for _, tc := range []struct {
		reason string
		// serve builds the gateway under test; block makes it refuse
		// work and returns what lets it accept work again.
		serve func(t *testing.T) (*httptest.Server, *Gateway)
		block func(t *testing.T, srv *httptest.Server, gw *Gateway) (unblock func())
	}{
		{
			reason: "draining",
			serve: func(t *testing.T) (*httptest.Server, *Gateway) {
				return newTestServer(t, Config{MaxBatch: 2})
			},
			block: func(t *testing.T, srv *httptest.Server, gw *Gateway) func() {
				gw.Drain()
				resp := postJob(t, srv.URL, "acme", submitBody(2), nil)
				resp.Body.Close()
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("submit while draining: %s, want 503", resp.Status)
				}
				return gw.Resume
			},
		},
		{
			reason: "queue full",
			serve: func(t *testing.T) (*httptest.Server, *Gateway) {
				sp := newStallProver()
				gw, err := NewGateway(sp, Config{MaxBatch: 1, QueueCap: 2})
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(gw.Handler())
				t.Cleanup(func() {
					srv.Close()
					sp.releaseJobs()
					gw.Drain()
				})
				return srv, gw
			},
			block: func(t *testing.T, srv *httptest.Server, gw *Gateway) func() {
				var ids []string
				submit := func() {
					t.Helper()
					info, err := gw.Submit("acme", 0, nil, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, info.ID)
				}
				// The prover takes no job until released: once the pump
				// has taken the first job it blocks handing it over, so
				// every later job stays queued.
				submit()
				for deadline := time.Now().Add(10 * time.Second); gw.Stats().Batches == 0; runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Fatal("the pump never took from the queue")
					}
				}
				for range gw.Config().QueueCap {
					submit()
				}
				resp := postJob(t, srv.URL, "acme", submitBody(2), nil)
				resp.Body.Close()
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Fatalf("submit to a full queue: %s, want 429", resp.Status)
				}
				return func() {
					gw.prover.(*stallProver).releaseJobs()
					for _, id := range ids {
						if info, ok := gw.WaitJob(context.Background(), id); !ok || !info.Status.Terminal() {
							t.Fatalf("job %s did not finish: %+v", id, info)
						}
					}
				}
			},
		},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			srv, gw := tc.serve(t)
			readyz := func(wantCode int, wantReason string) {
				t.Helper()
				resp, err := http.Get(srv.URL + "/readyz")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var body struct{ Reason string }
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != wantCode || body.Reason != wantReason {
					t.Fatalf("/readyz: %s %q, want %d %q", resp.Status, body.Reason, wantCode, wantReason)
				}
				if retry := resp.Header.Get("Retry-After"); (wantCode != http.StatusOK) != (retry != "") {
					t.Fatalf("/readyz %s with Retry-After %q", resp.Status, retry)
				}
			}
			readyz(http.StatusOK, "ok")
			unblock := tc.block(t, srv, gw)
			readyz(http.StatusServiceUnavailable, tc.reason)
			unblock()
			readyz(http.StatusOK, "ok")
			resp := postJob(t, srv.URL, "acme", submitBody(2), nil)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit after recovery: %s, want 202", resp.Status)
			}
		})
	}
}

// Unknown jobs and malformed requests map to 404 / 400.
func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxBatch: 2, MaxWait: time.Millisecond})
	resp, err := http.Get(srv.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s, want 404", resp.Status)
	}

	for name, body := range map[string]string{
		"not json":       "{",
		"missing tenant": `{"public":["1"],"secret":["2"]}`,
		"bad element":    `{"public":["zzz"],"secret":[]}`,
		"over modulus":   fmt.Sprintf(`{"public":["%s0"],"secret":[]}`, field.Modulus().String()),
	} {
		tenant := "acme"
		if name == "missing tenant" {
			tenant = ""
		}
		resp := postJob(t, srv.URL, tenant, []byte(body), nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", name, resp.Status)
		}
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/j-1?wait=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad wait duration: %s, want 400", resp.Status)
	}
}

// The NDJSON stream carries each terminal event once, filtered by
// tenant when requested.
func TestHTTPStream(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxBatch: 2, MaxWait: time.Millisecond})
	streamResp, err := http.Get(srv.URL + "/v1/stream?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("stream content type %q", ct)
	}

	var ids []string
	for i := 0; i < 3; i++ {
		resp := postJob(t, srv.URL, "acme", submitBody(2), nil)
		var ack SubmitResponse
		json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		ids = append(ids, ack.JobID)
	}
	// One foreign-tenant job that must NOT appear on the filtered stream.
	resp := postJob(t, srv.URL, "other", submitBody(2), nil)
	resp.Body.Close()

	sc := bufio.NewScanner(streamResp.Body)
	seen := make(map[string]int)
	deadline := time.AfterFunc(15*time.Second, func() { streamResp.Body.Close() })
	defer deadline.Stop()
	for len(seen) < len(ids) && sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Tenant != "acme" {
			t.Errorf("foreign tenant %s leaked onto filtered stream", ev.Tenant)
		}
		seen[ev.JobID]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("job %s: %d stream events, want 1", id, seen[id])
		}
	}
}

// The Prover interface is satisfied by both prover flavors — a compile
// check that the gateway composes with either backend.
var (
	_ Prover = (*core.BatchProver)(nil)
	_ Prover = (*core.ShardedProver)(nil)
)
