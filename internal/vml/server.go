package vml

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"batchzk/internal/nn"
	"batchzk/internal/protocol"
	"batchzk/internal/telemetry"
)

// HTTP interface (the first component of the paper's Figure 8): "an
// interface for the service provider to interact with customers. All
// public data to both parties, including customer input, prediction
// results, and zero-knowledge proofs, are transmitted through this
// interface." The model never crosses it.
//
//	GET  /commitment → {"modelRoot": hex}
//	POST /predict    → {"class", "logits", "proof": base64}

// PredictRequest is the customer's query: a flattened fixed-point image.
type PredictRequest struct {
	C      int     `json:"c"`
	H      int     `json:"h"`
	W      int     `json:"w"`
	Pixels []int64 `json:"pixels"`
}

// PredictResponse carries the prediction and its proof.
type PredictResponse struct {
	Class  int     `json:"class"`
	Logits []int64 `json:"logits"`
	Proof  string  `json:"proof"` // base64 of the serialized proof
}

// CommitmentResponse publishes the model commitment.
type CommitmentResponse struct {
	ModelRoot string `json:"modelRoot"` // hex
}

// Request-size limits on /predict: bodies above maxPredictBody and
// images declaring more than maxPredictPixels pixels both answer
// 413 Payload Too Large.
const (
	maxPredictBody   = 1 << 20
	maxPredictPixels = 1 << 16
)

// Handler returns an http.Handler serving the MLaaS interface for this
// service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/commitment", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		root := s.ModelRoot()
		writeJSON(w, CommitmentResponse{ModelRoot: fmt.Sprintf("%x", root[:])})
	})
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		// MaxBytesReader (unlike a bare LimitReader, which silently
		// truncates and surfaces as a confusing decode failure) makes an
		// oversized body a distinct error class, so it maps to 413
		// Payload Too Large instead of a 4xx/5xx about malformed JSON.
		r.Body = http.MaxBytesReader(w, r.Body, maxPredictBody)
		var req PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
					http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.C > 0 && req.H > 0 && req.W > 0 && req.C*req.H*req.W > maxPredictPixels {
			http.Error(w, fmt.Sprintf("image of %d pixels exceeds the %d-pixel limit",
				req.C*req.H*req.W, maxPredictPixels), http.StatusRequestEntityTooLarge)
			return
		}
		if req.C*req.H*req.W != len(req.Pixels) || len(req.Pixels) == 0 {
			http.Error(w, "bad request: pixel count does not match dimensions", http.StatusBadRequest)
			return
		}
		img := nn.NewTensor(req.C, req.H, req.W)
		copy(img.Data, req.Pixels)
		// Propagate job identity across the HTTP boundary: an X-Trace-Id
		// header (or an id already on the request context) keeps the
		// caller's trace id on the prover's flight timeline, and the
		// response echoes whichever id the job actually ran under.
		ctx := r.Context()
		if h := r.Header.Get("X-Trace-Id"); h != "" {
			if id, perr := strconv.ParseUint(h, 10, 64); perr == nil && id != 0 {
				ctx = telemetry.WithTraceID(ctx, telemetry.TraceID(id))
			}
		}
		if id := telemetry.TraceIDFrom(ctx); id != 0 {
			w.Header().Set("X-Trace-Id", strconv.FormatUint(uint64(id), 10))
		}
		trace := telemetry.TraceIDFrom(ctx)
		preds, err := s.HandleBatchContext(ctx, []*nn.Tensor{img})
		if err != nil {
			telemetry.Warn("vml", "predict.rejected", telemetry.Trace(trace), telemetry.Err(err))
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		p := preds[0]
		if p.Err != nil {
			telemetry.Error("vml", "predict.failed", telemetry.Trace(trace), telemetry.Err(p.Err))
			http.Error(w, "proving failed: "+p.Err.Error(), http.StatusInternalServerError)
			return
		}
		blob, err := p.Proof.MarshalBinary()
		if err != nil {
			telemetry.Error("vml", "predict.serialize_failed", telemetry.Trace(trace), telemetry.Err(err))
			http.Error(w, "serialization failed: "+err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, PredictResponse{
			Class:  p.Class,
			Logits: p.Logits,
			Proof:  base64.StdEncoding.EncodeToString(blob),
		})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// RemoteClient is the customer side of the HTTP interface: it fetches the
// commitment once and verifies every prediction locally against it.
type RemoteClient struct {
	base     string
	http     *http.Client
	verifier *Client
}

// NewRemoteClient builds a client for a service at baseURL. The local
// verification material (circuit, params, expected commitment) comes from
// the service's published description — here passed directly, as both
// sides compile the same public circuit.
func NewRemoteClient(baseURL string, verifier *Client, hc *http.Client) (*RemoteClient, error) {
	if verifier == nil {
		return nil, fmt.Errorf("vml: nil verifier")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	rc := &RemoteClient{base: baseURL, http: hc, verifier: verifier}
	// Cross-check the served commitment against the trusted one.
	resp, err := hc.Get(baseURL + "/commitment")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var cr CommitmentResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return nil, err
	}
	root := verifier.ModelRoot()
	if cr.ModelRoot != fmt.Sprintf("%x", root[:]) {
		return nil, fmt.Errorf("vml: server commitment %s does not match the trusted root", cr.ModelRoot)
	}
	return rc, nil
}

// Predict sends an image, verifies the returned proof against the
// commitment, and returns the verified prediction.
func (rc *RemoteClient) Predict(img *nn.Tensor) (*Prediction, error) {
	body, err := json.Marshal(PredictRequest{C: img.C, H: img.H, W: img.W, Pixels: img.Data})
	if err != nil {
		return nil, err
	}
	resp, err := rc.http.Post(rc.base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("vml: server returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, err
	}
	blob, err := base64.StdEncoding.DecodeString(pr.Proof)
	if err != nil {
		return nil, err
	}
	proof := &protocol.Proof{}
	if err := proof.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	pred := &Prediction{Class: pr.Class, Logits: pr.Logits, Proof: proof}
	if err := rc.verifier.VerifyPrediction(img, pred); err != nil {
		return nil, err
	}
	return pred, nil
}
