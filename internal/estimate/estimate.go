// Package estimate serves DASE slowdown estimation online, with no
// simulation in the loop: callers post the per-app hardware counters one
// estimation interval observed (the same fields sim.WithTracer emits), and
// the service answers with per-app slowdowns, MBB verdicts, and the SM
// partition the DASE-Fair search would pick. The paper's point is that the
// model is cheap enough to run at every scheduling interval; this package is
// that claim as a product surface.
//
// The steady-state path — decode, estimate, partition search, encode — is
// allocation-free: requests and responses are flat structs recycled through
// a pooled Scratch, the wire codec is hand-rolled (codec.go), and the model
// calls are core's *Into variant and a Scratch-owned sched.PartitionSearch.
// The alloc-budget test in service_test.go holds the line at 0 allocs/op.
package estimate

import (
	"math"
	"sync"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/memreq"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
)

// Request is one counter snapshot to estimate. Zero-valued header fields
// (interval_cycles, num_sms, peaks, req_max_factor, min_sms) take the
// service's configured defaults, so a minimal request only carries apps.
type Request struct {
	// ID is an optional caller correlation tag, echoed in the response
	// when non-zero.
	ID uint64
	// IntervalCycles is the interval length the counters cover.
	IntervalCycles uint64
	// NumSMs is the machine's total SM count.
	NumSMs int
	// PeakReqPerCyc / PeakActPerCyc are the DRAM peak request and
	// activation rates (Eq. 20 inputs).
	PeakReqPerCyc float64
	PeakActPerCyc float64
	// ReqMaxFactor is the empirical derating of Eq. 20.
	ReqMaxFactor float64
	// MinSMs bounds the partition search (per-app minimum).
	MinSMs int
	// Apps holds the per-app counters, in SM-partition order.
	Apps []AppCounters
}

// AppCounters are the per-app interval counters DASE reads — the subset of
// sim.AppInterval that reaches the model.
type AppCounters struct {
	SMs         int
	Alpha       float64
	Served      uint64
	TimeInBanks uint64
	ERBMiss     uint64
	ELLCMiss    float64
	RowHits     uint64
	RowMisses   uint64
	BLP         float64
	BLPAccess   float64
	BLPBlocked  float64
	TBSum       int
	TBShared    int
}

// AppResult is one app's estimate on the wire.
type AppResult struct {
	Slowdown         float64
	SlowdownAssigned float64
	MBB              bool
	Alpha            float64
	TimeBank         float64
	TimeRow          float64
	TimeLLC          float64
}

// Response answers one Request.
type Response struct {
	ID   uint64
	Apps []AppResult
	// Partition is the SM allocation minimising estimated unfairness.
	Partition []int
	// Unfairness is the estimated MAX/MIN slowdown at the current
	// allocation; PartitionUnfairness the same at Partition.
	Unfairness          float64
	PartitionUnfairness float64
}

// Options configure a Service; zero values take the listed defaults.
type Options struct {
	// Cfg supplies the machine defaults for request header fields the
	// caller omits. Default config.Default().
	Cfg config.Config
	// DASE are the estimator options (zero = the paper's configuration).
	DASE core.Options
	// MinSMs is the default per-app minimum for the partition search.
	// Default 1.
	MinSMs int
	// MaxApps bounds apps per snapshot. Default 8.
	MaxApps int
	// MaxBatch bounds snapshots per batched body. Default 64.
	MaxBatch int
	// MaxPartitions bounds the candidate partitions one request may make
	// the search enumerate — the knob that keeps a hostile num_sms from
	// turning the search into a CPU sink (its worst case visits them all).
	// Default 200000.
	MaxPartitions float64
}

func (o Options) withDefaults() Options {
	if o.Cfg.NumSMs == 0 {
		o.Cfg = config.Default()
	}
	if o.MinSMs <= 0 {
		o.MinSMs = 1
	}
	if o.MaxApps <= 0 {
		o.MaxApps = 8
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxPartitions <= 0 {
		o.MaxPartitions = 200_000
	}
	return o
}

// Service answers estimation requests. It is safe for concurrent use; all
// per-request state lives in the Scratch.
type Service struct {
	opt  Options
	dase *core.DASE
	pool sync.Pool
}

// NewService builds a Service.
func NewService(opt Options) *Service {
	s := &Service{opt: opt.withDefaults()}
	s.dase = core.New(s.opt.DASE)
	s.pool.New = func() any { return new(Scratch) }
	return s
}

// Options returns the resolved options.
func (s *Service) Options() Options { return s.opt }

// Scratch holds every buffer one request (or one stream) needs. Recycle
// through Get/Put; after the first few requests warm a Scratch, Process
// performs no allocations.
type Scratch struct {
	// Body is the raw request bytes: one JSON object, a JSON array batch,
	// or one NDJSON line. Callers fill it (reusing its capacity) before
	// Process.
	Body []byte
	// Out is the encoded response, valid until the next Process on this
	// Scratch.
	Out []byte

	reqs  []Request
	resps []Response
	snap  sim.IntervalSnapshot
	det   []core.AppEstimate
	slow  []float64
	cur   []int
	// search owns the partition search's reciprocal table and partitions.
	search sched.PartitionSearch
	// LineScanner state for NDJSON streams (stream.go).
	scan lineScanner
}

// Get returns a pooled Scratch.
func (s *Service) Get() *Scratch { return s.pool.Get().(*Scratch) }

// Put recycles sc. The caller must not touch sc afterwards.
func (s *Service) Put(sc *Scratch) { s.pool.Put(sc) }

// BatchSize reports how many snapshots the last successful Process handled.
func (sc *Scratch) BatchSize() int { return len(sc.resps) }

// Requests exposes the decoded requests of the last Process — read-only,
// valid until the next Process on this Scratch.
func (sc *Scratch) Requests() []Request { return sc.reqs }

// Process decodes sc.Body, validates it, estimates every snapshot, and
// encodes the response into sc.Out. A non-nil error is always a
// *RequestError; sc.Out is unspecified then. The call allocates nothing
// once sc is warm.
func (s *Service) Process(sc *Scratch) error {
	sc.Out = sc.Out[:0]
	reqs, single, derr := decodeRequests(sc.Body, sc.reqs[:0], s.opt.MaxBatch, s.opt.MaxApps)
	sc.reqs = reqs
	if derr != nil {
		sc.resps = sc.resps[:0]
		return derr
	}
	sc.resps = sc.resps[:0]
	for i := range reqs {
		req := &reqs[i]
		s.applyDefaults(req)
		if verr := s.validate(req, i, len(reqs) > 1); verr != nil {
			sc.resps = sc.resps[:0]
			return verr
		}
		sc.resps = growResponse(sc.resps)
		s.estimateOne(req, &sc.resps[len(sc.resps)-1], sc)
	}
	sc.Out = appendResponses(sc.Out, sc.resps, single)
	return nil
}

// EstimateSnapshot is the in-process convenience path: one live snapshot in,
// one Response out (allocating freely — serving paths use Process).
func (s *Service) EstimateSnapshot(snap *sim.IntervalSnapshot) (Response, error) {
	req := FromSnapshot(snap)
	sc := s.Get()
	defer s.Put(sc)
	s.applyDefaults(&req)
	if err := s.validate(&req, 0, false); err != nil {
		return Response{}, err
	}
	var resp Response
	s.estimateOne(&req, &resp, sc)
	resp.Apps = append([]AppResult(nil), resp.Apps...)
	resp.Partition = append([]int(nil), resp.Partition...)
	return resp, nil
}

func (s *Service) applyDefaults(req *Request) {
	if req.IntervalCycles == 0 {
		req.IntervalCycles = s.opt.Cfg.IntervalCycles
	}
	if req.NumSMs == 0 {
		req.NumSMs = s.opt.Cfg.NumSMs
	}
	if req.PeakReqPerCyc == 0 {
		req.PeakReqPerCyc = s.opt.Cfg.PeakRequestsPerCycle()
	}
	if req.PeakActPerCyc == 0 {
		req.PeakActPerCyc = s.opt.Cfg.PeakActivationsPerCycle()
	}
	if req.ReqMaxFactor == 0 {
		req.ReqMaxFactor = s.opt.Cfg.RequestMaxFactor
	}
	if req.MinSMs == 0 {
		req.MinSMs = s.opt.MinSMs
	}
}

// Absurdity bounds: values past these are garbage no real interval can
// produce, and feeding them onward would only manufacture NaN/Inf estimates.
const (
	maxIntervalCycles = 1e12
	maxNumSMs         = 4096
	maxCounter        = 1e15 // per-interval event counters
	maxRate           = 1e6  // per-cycle peak rates, BLP-like averages
	maxThreadBlocks   = 1e9
)

func checkCounterF(batch bool, idx int, app int, name string, v, max float64) *RequestError {
	if math.IsNaN(v) {
		return appErrf(batch, idx, app, name, "is NaN")
	}
	if math.IsInf(v, 0) {
		return appErrf(batch, idx, app, name, "is infinite")
	}
	if v < 0 {
		return appErrf(batch, idx, app, name, "is negative")
	}
	if v > max {
		return appErrf(batch, idx, app, name, "is absurdly large")
	}
	return nil
}

// appErrf builds a field-rejection error naming the batch index and app.
func appErrf(batch bool, idx int, app int, field, what string) *RequestError {
	switch {
	case batch && app >= 0:
		return invalidErrf("request %d: apps[%d].%s %s", idx, app, field, what)
	case batch:
		return invalidErrf("request %d: %s %s", idx, field, what)
	case app >= 0:
		return invalidErrf("apps[%d].%s %s", app, field, what)
	default:
		return invalidErrf("%s %s", field, what)
	}
}

// validate hardens the estimation path: NaN, negative, or absurd counters
// are rejected here with a 400-mapped error instead of propagating garbage
// into EstimateDetailed. It runs after applyDefaults, so every field is
// populated.
func (s *Service) validate(req *Request, idx int, batch bool) *RequestError {
	n := len(req.Apps)
	if n == 0 {
		return appErrf(batch, idx, -1, "apps", "is empty")
	}
	if req.IntervalCycles > maxIntervalCycles {
		return appErrf(batch, idx, -1, "interval_cycles", "is absurdly large")
	}
	if req.NumSMs < 1 || req.NumSMs > maxNumSMs {
		return appErrf(batch, idx, -1, "num_sms", "is out of range")
	}
	if req.MinSMs < 1 {
		return appErrf(batch, idx, -1, "min_sms", "is out of range")
	}
	if req.MinSMs*n > req.NumSMs {
		return appErrf(batch, idx, -1, "min_sms", "leaves no feasible partition")
	}
	if countCompositions(req.NumSMs, n, req.MinSMs) > s.opt.MaxPartitions {
		return appErrf(batch, idx, -1, "num_sms", "implies too many candidate partitions")
	}
	if err := checkCounterF(batch, idx, -1, "peak_req_per_cyc", req.PeakReqPerCyc, maxRate); err != nil {
		return err
	}
	if req.PeakReqPerCyc == 0 {
		return appErrf(batch, idx, -1, "peak_req_per_cyc", "is zero")
	}
	if err := checkCounterF(batch, idx, -1, "peak_act_per_cyc", req.PeakActPerCyc, maxRate); err != nil {
		return err
	}
	if req.ReqMaxFactor <= 0 || req.ReqMaxFactor > 1 || math.IsNaN(req.ReqMaxFactor) {
		return appErrf(batch, idx, -1, "req_max_factor", "is out of (0,1]")
	}
	for i := range req.Apps {
		a := &req.Apps[i]
		if a.SMs < 0 || a.SMs > req.NumSMs {
			return appErrf(batch, idx, i, "sms", "is out of range")
		}
		if math.IsNaN(a.Alpha) || a.Alpha < 0 || a.Alpha > 1+1e-9 {
			return appErrf(batch, idx, i, "alpha", "is out of [0,1]")
		}
		if err := checkCounterF(batch, idx, i, "ellc_miss", a.ELLCMiss, maxCounter); err != nil {
			return err
		}
		if err := checkCounterF(batch, idx, i, "blp", a.BLP, maxRate); err != nil {
			return err
		}
		if err := checkCounterF(batch, idx, i, "blp_access", a.BLPAccess, maxRate); err != nil {
			return err
		}
		if err := checkCounterF(batch, idx, i, "blp_blocked", a.BLPBlocked, maxRate); err != nil {
			return err
		}
		if float64(a.Served) > maxCounter {
			return appErrf(batch, idx, i, "served", "is absurdly large")
		}
		if float64(a.TimeInBanks) > maxCounter {
			return appErrf(batch, idx, i, "time_in_banks", "is absurdly large")
		}
		if float64(a.ERBMiss) > maxCounter {
			return appErrf(batch, idx, i, "erb_miss", "is absurdly large")
		}
		if float64(a.RowHits) > maxCounter {
			return appErrf(batch, idx, i, "row_hits", "is absurdly large")
		}
		if float64(a.RowMisses) > maxCounter {
			return appErrf(batch, idx, i, "row_misses", "is absurdly large")
		}
		if a.TBSum < 0 || float64(a.TBSum) > maxThreadBlocks {
			return appErrf(batch, idx, i, "tb_sum", "is out of range")
		}
		if a.TBShared < 0 || float64(a.TBShared) > maxThreadBlocks {
			return appErrf(batch, idx, i, "tb_shared", "is out of range")
		}
	}
	return nil
}

// countCompositions counts the compositions of total SMs into n parts of at
// least min each — C(total-n*min+n-1, n-1) — in floating point so huge
// inputs saturate instead of overflowing.
func countCompositions(total, n, min int) float64 {
	s := total - n*min
	k := n - 1
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(s+i) / float64(i)
		if c > 1e18 {
			return c
		}
	}
	return c
}

// estimateOne runs the model for one validated request, writing into resp
// using only sc-owned buffers.
func (s *Service) estimateOne(req *Request, resp *Response, sc *Scratch) {
	n := len(req.Apps)
	snap := &sc.snap
	*snap = sim.IntervalSnapshot{
		IntervalCycles: req.IntervalCycles,
		NumSMs:         req.NumSMs,
		NumMCs:         s.opt.Cfg.NumMCs,
		PeakReqPerCyc:  req.PeakReqPerCyc,
		PeakActPerCyc:  req.PeakActPerCyc,
		ReqMaxFactor:   req.ReqMaxFactor,
		Apps:           sc.snap.Apps[:0],
	}
	for i := range req.Apps {
		a := &req.Apps[i]
		snap.Apps = append(snap.Apps, sim.AppInterval{
			App:         memreq.AppID(i),
			SMs:         a.SMs,
			Alpha:       a.Alpha,
			Served:      a.Served,
			TimeInBanks: a.TimeInBanks,
			ERBMiss:     a.ERBMiss,
			ELLCMiss:    a.ELLCMiss,
			RowHits:     a.RowHits,
			RowMisses:   a.RowMisses,
			BLP:         a.BLP,
			BLPAccess:   a.BLPAccess,
			BLPBlocked:  a.BLPBlocked,
			TBSum:       a.TBSum,
			TBShared:    a.TBShared,
		})
	}
	sc.det = s.dase.EstimateDetailedInto(snap, sc.det)

	sc.slow = resizeFloats(sc.slow, n)
	sc.cur = resizeInts(sc.cur, n)
	for i := range sc.det {
		sc.slow[i] = sc.det[i].Slowdown
		sc.cur[i] = req.Apps[i].SMs
	}

	resp.ID = req.ID
	resp.Apps = resp.Apps[:0]
	for i := range sc.det {
		d := &sc.det[i]
		resp.Apps = append(resp.Apps, AppResult{
			Slowdown:         d.Slowdown,
			SlowdownAssigned: d.SlowdownAssigned,
			MBB:              d.MBB,
			Alpha:            d.Alpha,
			TimeBank:         d.TimeBank,
			TimeRow:          d.TimeRow,
			TimeLLC:          d.TimeLLC,
		})
	}
	resp.Unfairness = sched.EstimatedUnfairness(sc.slow, sc.cur, sc.cur, req.NumSMs)
	best, bestUnf := sc.search.Fair(sc.slow, sc.cur, req.NumSMs, req.MinSMs)
	resp.Partition = resp.Partition[:0]
	resp.Partition = append(resp.Partition, best...)
	resp.PartitionUnfairness = bestUnf
}

// growResponse extends resps by one entry, preserving the inner slice
// capacities of recycled entries (the same trick as growRequest).
func growResponse(resps []Response) []Response {
	if len(resps) < cap(resps) {
		resps = resps[:len(resps)+1]
		r := &resps[len(resps)-1]
		apps, part := r.Apps[:0], r.Partition[:0]
		*r = Response{}
		r.Apps, r.Partition = apps, part
		return resps
	}
	return append(resps, Response{})
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// FromSnapshot converts a live interval snapshot into the wire Request the
// service accepts — the bridge from sim.WithTracer-style interval data to
// the online API. Fields DASE does not read are not carried.
func FromSnapshot(snap *sim.IntervalSnapshot) Request {
	req := Request{
		IntervalCycles: snap.IntervalCycles,
		NumSMs:         snap.NumSMs,
		PeakReqPerCyc:  snap.PeakReqPerCyc,
		PeakActPerCyc:  snap.PeakActPerCyc,
		ReqMaxFactor:   snap.ReqMaxFactor,
		Apps:           make([]AppCounters, len(snap.Apps)),
	}
	for i := range snap.Apps {
		a := &snap.Apps[i]
		req.Apps[i] = AppCounters{
			SMs:         a.SMs,
			Alpha:       a.Alpha,
			Served:      a.Served,
			TimeInBanks: a.TimeInBanks,
			ERBMiss:     a.ERBMiss,
			ELLCMiss:    a.ELLCMiss,
			RowHits:     a.RowHits,
			RowMisses:   a.RowMisses,
			BLP:         a.BLP,
			BLPAccess:   a.BLPAccess,
			BLPBlocked:  a.BLPBlocked,
			TBSum:       a.TBSum,
			TBShared:    a.TBShared,
		}
	}
	return req
}
