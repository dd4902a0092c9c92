package server

import (
	"errors"
	"io"
	"net/http"
	"time"
)

// The estimation endpoint serves DASE online — counters in, slowdowns and a
// recommended partition out, no simulation in the loop. Unlike the job API,
// it answers synchronously on the request goroutine and keeps the
// per-request path allocation-free: all working state lives in a pooled
// estimate.Scratch, responses are written from its recycled output buffer,
// and only the HTTP transport itself allocates. POST /v1/estimate handles
// one body per request: an object or an array batch.

var errBodyTooLarge = errors.New("request body too large")

// readBody reads r.Body into buf (recycled, truncated by the caller),
// rejecting bodies over max without buffering them.
func readBody(r *http.Request, buf []byte, max int64) ([]byte, error) {
	if r.ContentLength > max {
		return buf, errBodyTooLarge
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > max {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// isDraining reports whether shutdown has begun; estimation is refused then
// so the listener can close promptly.
func (s *Server) isDraining() bool { return s.draining.Load() }

// writeEstimateError maps a Process failure onto 400 with the service's
// error body, counting the rejection.
func (s *Server) writeEstimateError(w http.ResponseWriter, r *http.Request, err error) {
	s.metrics.estRejected.Add(1)
	s.writeError(w, r, http.StatusBadRequest, err.Error())
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, r, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	sc := s.est.Get()
	defer s.est.Put(sc)
	body, err := readBody(r, sc.Body[:0], estimateMaxBody)
	sc.Body = body
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			s.metrics.estRejected.Add(1)
			s.writeError(w, r, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		s.writeError(w, r, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	start := time.Now()
	perr := s.est.Process(sc)
	s.metrics.estLatency.Observe(time.Since(start).Seconds())
	if perr != nil {
		s.writeEstimateError(w, r, perr)
		return
	}
	s.metrics.estRequests.Add(uint64(sc.BatchSize()))
	s.metrics.estBatch.Observe(float64(sc.BatchSize()))
	w.Header().Set("Content-Type", "application/json")
	if _, werr := w.Write(sc.Out); werr != nil {
		s.opts.Logger.Error("write estimate response failed", "err", werr)
	}
}
