package vml

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"batchzk/internal/nn"
	"batchzk/internal/telemetry"
)

func TestHTTPInterfaceEndToEnd(t *testing.T) {
	svc := newTinyService(t)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	rc, err := NewRemoteClient(srv.URL, svc.Client(), srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	img := nn.RandImage(1, 8, 8, 55)
	pred, err := rc.Predict(img)
	if err != nil {
		t.Fatal(err)
	}
	// The verified class matches local inference.
	want, _ := svc.net.Classify(img)
	if pred.Class != want {
		t.Fatalf("remote class %d, local %d", pred.Class, want)
	}
}

func TestHTTPRejectsWrongCommitment(t *testing.T) {
	// A client trusting model A must refuse to talk to a server running
	// model B.
	svcA := newTinyService(t)
	svcB, err := NewService(nn.TinyCNN(4321), 2)
	if err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(svcB.Handler())
	defer srvB.Close()
	if _, err := NewRemoteClient(srvB.URL, svcA.Client(), srvB.Client()); err == nil {
		t.Fatal("client accepted a server with a different commitment")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	svc := newTinyService(t)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	// Wrong method.
	resp, err := client.Get(srv.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict = %d", resp.StatusCode)
	}
	resp, err = client.Post(srv.URL+"/commitment", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /commitment = %d", resp.StatusCode)
	}

	// Malformed JSON.
	resp, err = client.Post(srv.URL+"/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON = %d", resp.StatusCode)
	}

	// Dimension mismatch.
	body, _ := json.Marshal(PredictRequest{C: 1, H: 8, W: 8, Pixels: []int64{1, 2, 3}})
	resp, err = client.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dimension mismatch = %d", resp.StatusCode)
	}

	// Wrong image shape for the model.
	body, _ = json.Marshal(PredictRequest{C: 3, H: 8, W: 8, Pixels: make([]int64, 192)})
	resp, err = client.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong shape = %d", resp.StatusCode)
	}
}

func TestHTTPTamperedProofDetected(t *testing.T) {
	// A man-in-the-middle flipping the class in transit must be caught by
	// the client's local verification.
	svc := newTinyService(t)
	tamper := http.NewServeMux()
	inner := svc.Handler()
	tamper.HandleFunc("/commitment", inner.ServeHTTP)
	tamper.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var pr PredictResponse
		if err := json.NewDecoder(rec.Body).Decode(&pr); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		pr.Class = (pr.Class + 1) % 10 // flip the claimed class
		writeJSON(w, pr)
	})
	srv := httptest.NewServer(tamper)
	defer srv.Close()

	rc, err := NewRemoteClient(srv.URL, svc.Client(), srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Predict(nn.RandImage(1, 8, 8, 66)); err == nil {
		t.Fatal("tampered response accepted")
	}
}

// TestHTTPTraceIDRoundTrip: an X-Trace-Id request header rides the
// request context into the batch prover's flight recorder, and the
// response echoes the id the job ran under, so a customer can correlate
// their request with the provider's per-job timeline.
func TestHTTPTraceIDRoundTrip(t *testing.T) {
	sink := telemetry.NewSink(telemetry.Config{})
	telemetry.Enable(sink)
	defer telemetry.Enable(nil)

	svc := newTinyService(t)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	img := nn.RandImage(1, 8, 8, 3)
	body, err := json.Marshal(PredictRequest{C: img.C, H: img.H, W: img.W, Pixels: img.Data})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", "777")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict returned %s", resp.Status)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "777" {
		t.Fatalf("response echoed X-Trace-Id %q, want 777", got)
	}
	tl, ok := sink.FlightRecorder().Timeline(telemetry.TraceID(777))
	if !ok {
		t.Fatal("caller's trace id did not reach the flight recorder")
	}
	if !tl.Done || tl.Error != "" {
		t.Fatalf("timeline for the proved request: %+v", tl)
	}
	if len(tl.Stages) == 0 {
		t.Fatal("timeline recorded no pipeline stages")
	}
}

// Regression: oversized /predict payloads must answer 413 Payload Too
// Large — both a body over the byte cap and a declared image over the
// pixel cap — never a truncation-induced decode error or a 500.
func TestHTTPOversizedPayload413(t *testing.T) {
	svc := newTinyService(t)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	// Body over maxPredictBody: a pixel array big enough that its JSON
	// encoding clears 1 MiB.
	body, _ := json.Marshal(PredictRequest{C: 1, H: 1024, W: 1024, Pixels: make([]int64, 1024*1024)})
	if len(body) <= maxPredictBody {
		t.Fatalf("test body is %d bytes, expected > %d", len(body), maxPredictBody)
	}
	resp, err := client.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}

	// Declared dimensions over maxPredictPixels with a small body:
	// rejected by the pixel cap before any allocation.
	body, _ = json.Marshal(PredictRequest{C: 64, H: 64, W: 64, Pixels: []int64{1}})
	resp, err = client.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized declared image = %d, want 413", resp.StatusCode)
	}

	// An in-bounds request still proves after the caps are in place.
	img := nn.RandImage(1, 8, 8, 77)
	body, _ = json.Marshal(PredictRequest{C: img.C, H: img.H, W: img.W, Pixels: img.Data})
	resp, err = client.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-bounds request = %d, want 200", resp.StatusCode)
	}
}
