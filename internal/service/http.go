package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"strconv"
	"time"

	"batchzk/internal/field"
	"batchzk/internal/obs"
	"batchzk/internal/telemetry"
)

// HTTP API of the gateway:
//
//	POST /v1/jobs             submit one job → 202 {job_id, trace_id, status}
//	GET  /v1/jobs/{id}        poll a job; ?wait=2s long-polls to terminal
//	GET  /v1/jobs/{id}/proof  raw binary proof, streamed zero-copy
//	GET  /v1/stream           NDJSON terminal events; ?tenant= filters
//	GET  /v1/stats            gateway counters
//	GET  /healthz             liveness
//	GET  /readyz              admission readiness (503 while draining)
//
// Backpressure contract: over-quota and queue-full submissions get 429
// with a Retry-After hint; a draining gateway answers 503 Retry-After;
// oversized bodies get 413. Trace ids round-trip via X-Trace-Id exactly
// as in internal/vml: send one to adopt it, read the response header
// (or body) for the id the job ran under.

// SubmitRequest is the wire form of one job submission. Field elements
// travel as decimal strings: 254-bit values do not survive JSON numbers.
type SubmitRequest struct {
	Tenant   string   `json:"tenant,omitempty"` // X-Tenant header wins
	Priority int      `json:"priority"`
	Public   []string `json:"public"`
	Secret   []string `json:"secret"`
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	JobID   string            `json:"job_id"`
	TraceID telemetry.TraceID `json:"trace_id"`
	Status  Status            `json:"status"`
}

// JobResponse is the poll view of a job; the proof appears base64-coded
// once the job is done.
type JobResponse struct {
	JobInfo
	Proof string `json:"proof,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// retryAfterSeconds formats d for a Retry-After header, rounding up so
// a sub-second hint never becomes "retry immediately".
func retryAfterSeconds(d time.Duration) string {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// parseElements decodes decimal-string field elements, bounding count
// so a handful of huge arrays cannot exhaust memory past the body cap.
func parseElements(vals []string, max int, what string) ([]field.Element, error) {
	if len(vals) > max {
		return nil, fmt.Errorf("%s has %d elements, limit %d", what, len(vals), max)
	}
	out := make([]field.Element, len(vals))
	for i, s := range vals {
		n, ok := new(big.Int).SetString(s, 10)
		if !ok || n.Sign() < 0 {
			return nil, fmt.Errorf("%s[%d]: %q is not a decimal field element", what, i, s)
		}
		if n.Cmp(field.Modulus()) >= 0 {
			return nil, fmt.Errorf("%s[%d]: value ≥ field modulus", what, i)
		}
		out[i].SetBigInt(n)
	}
	return out, nil
}

// queueFullRetryAfter is the Retry-After hint on ErrQueueFull. A full
// queue clears at the prover's pace, which admission does not predict,
// and the header counts whole seconds: one second is the shortest hint
// that still tells a client to back off rather than retry at once.
const queueFullRetryAfter = time.Second

// maxWireElements bounds each of the public/secret arrays per request.
const maxWireElements = 1 << 16

// Handler returns the gateway's HTTP API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/proof", g.handleProof)
	mux.HandleFunc("GET /v1/stream", g.handleStream)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, g.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": g.Draining()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		ready, reason := g.Ready()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, map[string]any{"ready": ready, "reason": reason})
	})
	return mux
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// MaxBytesReader makes oversized bodies a distinct error class, so
	// they answer 413 rather than a generic decode 400/500.
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBody)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = req.Tenant
	}
	if tenant == "" {
		writeError(w, http.StatusBadRequest, "missing tenant (X-Tenant header or body field)")
		return
	}
	public, err := parseElements(req.Public, maxWireElements, "public")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	secret, err := parseElements(req.Secret, maxWireElements, "secret")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	var callerTrace telemetry.TraceID
	if h := r.Header.Get("X-Trace-Id"); h != "" {
		if id, perr := strconv.ParseUint(h, 10, 64); perr == nil {
			callerTrace = telemetry.TraceID(id)
		}
	}
	info, err := g.Submit(tenant, req.Priority, public, secret, callerTrace)
	if err != nil {
		var quota *QuotaError
		switch {
		case errors.As(err, &quota):
			w.Header().Set("Retry-After", retryAfterSeconds(quota.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", retryAfterSeconds(queueFullRetryAfter))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	if info.TraceID != 0 {
		w.Header().Set("X-Trace-Id", strconv.FormatUint(uint64(info.TraceID), 10))
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		JobID: info.ID, TraceID: info.TraceID, Status: info.Status,
	})
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		info JobInfo
		ok   bool
	)
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad wait duration")
			return
		}
		ctx := r.Context()
		if d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		info, ok = g.WaitJob(ctx, id)
	} else {
		info, ok = g.Job(id)
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	resp := JobResponse{JobInfo: info}
	if info.Status == StatusDone && info.Proof != nil {
		blob, err := info.Proof.MarshalBinary()
		if err != nil {
			obs.Error("service", "proof.serialize_failed", obs.Trace(info.TraceID), obs.Err(err))
			writeError(w, http.StatusInternalServerError, "proof serialization failed")
			return
		}
		resp.Proof = base64.StdEncoding.EncodeToString(blob)
	}
	if info.TraceID != 0 {
		w.Header().Set("X-Trace-Id", strconv.FormatUint(uint64(info.TraceID), 10))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleProof serves a completed job's proof as its wire encoding,
// written straight to the response through Proof.WriteTo — proofs in
// this protocol family run to megabytes, and the poll endpoint's
// marshal-then-base64 detour costs ~2.3× the proof size in transient
// allocations per download. Content-Length is exact, so clients can
// preallocate.
func (g *Gateway) handleProof(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := g.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	if info.Status != StatusDone || info.Proof == nil {
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s, not done", id, info.Status))
		return
	}
	size, err := info.Proof.Size()
	if err != nil {
		obs.Error("service", "proof.serialize_failed", obs.Trace(info.TraceID), obs.Err(err))
		writeError(w, http.StatusInternalServerError, "proof serialization failed")
		return
	}
	if info.TraceID != 0 {
		w.Header().Set("X-Trace-Id", strconv.FormatUint(uint64(info.TraceID), 10))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	if _, err := info.Proof.WriteTo(w); err != nil {
		// Headers are gone; all we can do is log the broken download.
		obs.Warn("service", "proof.stream_aborted", obs.Trace(info.TraceID), obs.Err(err))
	}
}

// handleStream serves terminal events as NDJSON until the client goes
// away. Slow clients miss events (the gateway never stalls the prover
// for a reader); the poll endpoint stays authoritative.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	// Subscribe before the header goes out: a client that has seen the
	// 200 must get every event from then on.
	events, cancel := g.Subscribe()
	defer cancel()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	if g.afterStreamFlush != nil {
		g.afterStreamFlush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if tenant != "" && ev.Tenant != tenant {
				continue
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
