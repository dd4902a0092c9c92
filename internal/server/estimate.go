package server

import (
	"errors"
	"io"
	"net/http"
	"time"

	"dasesim/internal/estimate"
)

// The estimation endpoints serve DASE online — counters in, slowdowns and a
// recommended partition out, no simulation in the loop. Unlike the job API,
// they answer synchronously on the request goroutine and keep the
// per-request path allocation-free: all working state lives in a pooled
// estimate.Scratch, responses are written from its recycled output buffer,
// and only the HTTP transport itself allocates. POST /v1/estimate handles
// one body (object or array batch); POST /v1/estimate/stream speaks NDJSON
// both ways over one connection, flushing per line.

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

// handleEstimateStream serves NDJSON request/response streams: one JSON
// request per line in, one JSON response (or {"error":...}) per line out,
// flushed per line so a slow producer still sees each answer promptly. A
// malformed line terminates the stream — after a framing error the
// connection cannot be trusted — while a line with invalid counter values
// gets an error line and the stream continues. When the server starts
// draining mid-stream, the client gets a final error line and the stream
// closes.
func (s *Server) handleEstimateStream(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, r, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	s.metrics.estStreams.Add(1)
	defer s.metrics.estStreams.Add(-1)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	// Full duplex: without it, net/http drains the request body before
	// committing response headers, deadlocking a client that waits for our
	// answer to line N before sending line N+1.
	_ = rc.EnableFullDuplex()
	// The server's ReadTimeout is sized for one-shot bodies; a long-lived
	// stream legitimately outlives it, so clear the deadline here.
	_ = rc.SetReadDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Commit the response headers before reading any input: clients block on
	// them before sending their first line.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	sc := s.est.Get()
	defer s.est.Put(sc)
	sc.StreamReset(estimateMaxBody)

	writeLine := func(line []byte) bool {
		if _, err := w.Write(line); err != nil {
			return false
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	for {
		err := sc.StreamNext(r.Body)
		if err == io.EOF {
			return
		}
		if err != nil {
			if errors.Is(err, estimate.ErrLineTooLong) {
				s.metrics.estRejected.Add(1)
				writeLine(estimate.AppendError(sc.Out[:0], err.Error()))
			}
			return // client went away or sent an unreadable stream
		}
		if s.isDraining() {
			writeLine(estimate.AppendError(sc.Out[:0], ErrDraining.Error()))
			return
		}
		start := time.Now()
		perr := s.est.Process(sc)
		s.metrics.estLatency.Observe(time.Since(start).Seconds())
		if perr != nil {
			s.metrics.estRejected.Add(1)
			if !writeLine(estimate.AppendError(sc.Out[:0], perr.Error())) {
				return
			}
			var rerr *estimate.RequestError
			if errors.As(perr, &rerr) && rerr.Kind == estimate.KindDecode {
				return // framing is broken; stop the stream
			}
			continue
		}
		s.metrics.estRequests.Add(uint64(sc.BatchSize()))
		s.metrics.estBatch.Observe(float64(sc.BatchSize()))
		if !writeLine(sc.Out) {
			return
		}
	}
}
