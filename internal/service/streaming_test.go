package service

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"batchzk/internal/protocol"
)

// TestStreamIncrementalDelivery: under the streaming prover, /v1/stream
// is per-job — the first NDJSON event arrives while later jobs are
// still proving, not after the batch drains. The last job's result is
// held back until the first event has been read, so observing an event
// before it turns terminal is deterministic, not a scheduling accident.
// The handler is parked between its header flush and its first read
// while the first event goes out, so a subscription taken after the
// flush would lose that event every time.
func TestStreamIncrementalDelivery(t *testing.T) {
	const n = 4
	sp, _ := newTestProver(t, 1)
	prover := newScriptedProver(sp, n, -1) // n: internal seq of the last job
	var unhold sync.Once
	releaseLast := func() { unhold.Do(func() { close(prover.release) }) }
	gw, err := NewGateway(prover, Config{MaxBatch: 2, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Park the stream handler right after its header flush, and let a job
	// turn terminal (and its event go out) before it goes on: the client
	// has its 200 by then, so it must still receive that event.
	parked, release := make(chan struct{}), make(chan struct{})
	gw.afterStreamFlush = func() {
		close(parked)
		<-release
	}
	var unpark sync.Once
	srv := httptest.NewServer(gw.Handler())
	defer func() {
		unpark.Do(func() { close(release) })
		releaseLast()
		srv.Close()
		gw.Drain()
	}()

	streamResp, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	<-parked
	published, cancel := gw.Subscribe()
	defer cancel()

	ids := submitN(t, gw, "acme", n)
	<-published
	unpark.Do(func() { close(release) })

	sc := bufio.NewScanner(streamResp.Body)
	deadline := time.AfterFunc(20*time.Second, func() { streamResp.Body.Close() })
	defer deadline.Stop()
	if !sc.Scan() {
		t.Fatalf("stream closed before first event: %v", sc.Err())
	}
	var first Event
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
	}
	if !first.Status.Terminal() {
		t.Fatalf("streamed a non-terminal event: %+v", first)
	}
	last, ok := gw.Job(ids[n-1])
	if !ok {
		t.Fatalf("last job %s vanished", ids[n-1])
	}
	if last.Status.Terminal() {
		t.Fatal("first stream event arrived only after the last job completed; emission is not incremental")
	}
	releaseLast()

	// The remaining events still arrive, exactly one per job.
	seen := map[string]int{first.JobID: 1}
	for len(seen) < n && sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		seen[ev.JobID]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("job %s: %d stream events, want 1", id, seen[id])
		}
	}
}

// TestHTTPBinaryProof: the raw proof endpoint serves the exact wire
// encoding with an exact Content-Length, and agrees byte for byte with
// the poll endpoint's base64 detour.
func TestHTTPBinaryProof(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxBatch: 2, MaxWait: time.Millisecond})
	resp := postJob(t, srv.URL, "acme", submitBody(2), nil)
	var ack SubmitResponse
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()

	poll, err := http.Get(srv.URL + "/v1/jobs/" + ack.JobID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	json.NewDecoder(poll.Body).Decode(&jr)
	poll.Body.Close()
	if jr.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", jr.Status, jr.Err)
	}
	viaBase64, err := base64.StdEncoding.DecodeString(jr.Proof)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := http.Get(srv.URL + "/v1/jobs/" + ack.JobID + "/proof")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("proof endpoint: %s", raw.Status)
	}
	if ct := raw.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	blob, err := io.ReadAll(raw.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cl := raw.ContentLength; cl != int64(len(blob)) {
		t.Errorf("Content-Length %d, body %d bytes", cl, len(blob))
	}
	if !bytes.Equal(blob, viaBase64) {
		t.Fatal("binary endpoint and base64 poll serve different proof bytes")
	}
	var proof protocol.Proof
	if _, err := proof.ReadFrom(bytes.NewReader(blob)); err != nil {
		t.Fatalf("served proof does not deserialize: %v", err)
	}

	if resp, _ := http.Get(srv.URL + "/v1/jobs/nope/proof"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s", resp.Status)
	}
}

// TestHTTPBinaryProofNotDone: a job that is not done yet answers 409,
// not an empty body.
func TestHTTPBinaryProofNotDone(t *testing.T) {
	// A job with no witness never reaches done, whenever it is probed.
	srv, gw := newTestServer(t, Config{MaxBatch: 64, MaxWait: time.Minute})
	info, err := gw.Submit("acme", 0, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + info.ID + "/proof")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("queued job proof: %s, want 409", resp.Status)
	}
}
