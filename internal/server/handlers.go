package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dasesim/internal/telemetry"
)

// ErrQueueFull, ErrShed and ErrDraining classify submission failures into
// HTTP statuses (429, 429, 503).
var (
	ErrQueueFull = errors.New("job queue full")
	ErrShed      = errors.New("queue over high-water mark; uncached submissions shed")
	ErrDraining  = errors.New("server shutting down")
)

// SubmitStatus maps a Submit error to the HTTP status POST /v1/jobs answers
// it with.
func SubmitStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusAccepted
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs              submit a job (202, body: job view)
//	GET    /v1/jobs              list job views, newest last
//	GET    /v1/jobs/{id}         one job view (?wait_ms=N long-polls completion)
//	GET    /v1/jobs/{id}/trace   the job's event trace (NDJSON)
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/kernels           the kernel catalogue
//	POST   /v1/estimate          online DASE estimation (object or array batch)
//	GET    /healthz              liveness probe (503 only while draining)
//	GET    /readyz               readiness probe (503 before Start or while draining)
//	GET    /metrics              Prometheus text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logMiddleware(mux)
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// logMiddleware emits one structured line per request, carrying the job id
// for job-scoped routes.
func (s *Server) logMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		attrs := []any{
			"method", r.Method, "path", r.URL.Path,
			"status", rec.status, "dur", time.Since(start).Round(time.Microsecond),
		}
		if id := r.PathValue("id"); id != "" {
			attrs = append(attrs, "job", id)
		}
		s.opts.Logger.Info("request", attrs...)
	})
}

// writeJSON renders v with the given status as one compact, newline-ended
// value: indenting cost a cache-hit job an eighth of its CPU (DESIGN §8).
// Encode failures (a closed connection, an unmarshalable value) are logged
// rather than silently dropped — by then the status line is already on the
// wire, so logging is all that is left to do.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.opts.Logger.Error("write json failed", "path", r.URL.Path, "status", status, "err", err)
	}
}

// writeError renders a JSON error body that names the request path, so a
// client juggling several in-flight calls can tell which one failed.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	s.writeJSON(w, r, status, map[string]string{"error": msg, "path": r.URL.Path})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// One job per body: anything after the object but whitespace is refused,
	// as the estimate codec refuses it, rather than silently dropped.
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		s.writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad request body: trailing data after offset %d", end))
		return
	}
	v, err := s.Submit(req)
	if err != nil {
		s.writeError(w, r, SubmitStatus(err), err.Error())
		return
	}
	s.writeJSON(w, r, http.StatusAccepted, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]any{"jobs": s.Views()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.getJob(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "no such job")
		return
	}
	if ms, err := strconv.Atoi(r.URL.Query().Get("wait_ms")); err == nil && ms > 0 {
		// Long-poll: return early when the job reaches a terminal state.
		// Oversized waits are clamped so a client cannot pin a handler
		// goroutine indefinitely; a job already terminal returns at once
		// (its done channel is closed).
		wait := time.Duration(ms) * time.Millisecond
		if wait > s.opts.LongPollMax {
			wait = s.opts.LongPollMax
		}
		t := time.NewTimer(wait)
		select {
		case <-job.done:
		case <-t.C:
		case <-r.Context().Done():
		}
		t.Stop()
	}
	s.mu.Lock()
	v := job.view()
	s.mu.Unlock()
	s.writeJSON(w, r, http.StatusOK, v)
}

// handleTrace serves a job's event trace as NDJSON, the stream cmd/dasetrace
// reads.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.getJob(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "no such job")
		return
	}
	if job.tracer == nil {
		s.writeError(w, r, http.StatusNotFound, "tracing disabled; start the server with trace events enabled")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := telemetry.WriteNDJSON(w, job.tracer.Events()); err != nil {
		s.opts.Logger.Error("write trace failed", "job", job.ID, "err", err)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, canceled := s.cancelJob(id)
	switch {
	case !found:
		s.writeError(w, r, http.StatusNotFound, "no such job")
	case !canceled:
		s.writeError(w, r, http.StatusConflict, "job already finished")
	default:
		s.writeJSON(w, r, http.StatusOK, map[string]string{"id": id, "status": "canceling"})
	}
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	type kernelView struct {
		Abbr    string  `json:"abbr"`
		Name    string  `json:"name"`
		PaperBW float64 `json:"paper_bw"`
	}
	out := make([]kernelView, 0, len(s.opts.Catalogue))
	for _, p := range s.opts.Catalogue {
		out = append(out, kernelView{Abbr: p.Abbr, Name: p.Name, PaperBW: p.PaperBW})
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"kernels": out})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.isDraining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, r, code, map[string]any{
		"status":   status,
		"uptime_s": time.Since(s.metrics.start).Seconds(),
	})
}

// handleReady is the readiness probe: unlike /healthz (liveness — the process
// is up and able to answer), /readyz answers whether the daemon should
// receive traffic. It reports 503 until Start has run and while draining;
// the 503 body names the failing condition.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if err := s.Ready(); err != nil {
		s.writeJSON(w, r, http.StatusServiceUnavailable, map[string]string{
			"status": "unavailable",
			"reason": err.Error(),
		})
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}
