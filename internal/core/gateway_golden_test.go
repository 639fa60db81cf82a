package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/service"
)

// TestGatewayProofBytesGolden: the three golden jobs submitted over HTTP
// to a gateway on a sharded prover come back from the binary proof
// endpoint as exactly the bytes TestProofBytesGolden pins.
func TestGatewayProofBytesGolden(t *testing.T) {
	c, p, batch := core.GoldenBatch(t)
	sp, err := core.NewShardedProver(c, p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := service.NewGateway(sp, service.Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	defer func() {
		srv.Close()
		gw.Drain()
	}()
	decimal := func(v []field.Element) []string {
		out := make([]string, len(v))
		for i := range v {
			out[i] = v[i].BigInt().String()
		}
		return out
	}
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s %v", url, resp.Status, err)
		}
		return body
	}

	h := sha256.New()
	for _, job := range batch {
		body, err := json.Marshal(service.SubmitRequest{Tenant: "golden", Public: decimal(job.Public), Secret: decimal(job.Secret)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack service.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit job %d: %s %v", job.ID, resp.Status, err)
		}
		var polled service.JobResponse
		if err := json.Unmarshal(get(srv.URL+"/v1/jobs/"+ack.JobID+"?wait=30s"), &polled); err != nil {
			t.Fatal(err)
		}
		if polled.Status != service.StatusDone {
			t.Fatalf("job %d ended %s (%s)", job.ID, polled.Status, polled.Err)
		}
		h.Write(get(srv.URL + "/v1/jobs/" + ack.JobID + "/proof"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != core.GoldenProofDigest {
		t.Fatalf("gateway proofs hash to %s, want %s", got, core.GoldenProofDigest)
	}
}
