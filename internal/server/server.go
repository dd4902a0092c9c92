// Package server exposes the simulator as a long-running service: a JSON
// HTTP API that accepts simulation jobs, runs them on a bounded worker pool
// with a FIFO queue, serves repeated queries from a content-addressed result
// cache, and reports health and Prometheus metrics. It turns the one-shot
// CLI reproduction into something continuously queryable — the production
// posture that run-time slowdown estimators are designed for.
//
// Robustness properties:
//
//   - a full queue rejects submissions with 429 instead of blocking, and
//     above a high-water mark non-cached submissions are shed first;
//   - each job runs under a context with a per-job timeout, and client
//     cancellation (DELETE) aborts queued and running jobs;
//   - a panicking simulation fails its job, not the process;
//   - jobs that fail on transient errors (injected faults, journal I/O,
//     worker panics) are retried with capped exponential backoff and full
//     jitter before being marked failed;
//   - with a journal configured, every lifecycle transition is committed to
//     an fsynced write-ahead log; on restart, terminal jobs are restored as
//     queryable records and non-terminal jobs are re-enqueued — simulation
//     results are deterministic, so recovery is semantically invisible;
//   - Shutdown stops intake, drains queued and running jobs, and
//     hard-cancels whatever is still running when its context expires.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/estimate"
	"dasesim/internal/journal"
	"dasesim/internal/kernels"
	"dasesim/internal/simcache"
	"dasesim/internal/telemetry"
)

// Options configure a Server; zero fields take the documented defaults.
type Options struct {
	// Cfg is the simulated GPU (default: config.Default(), the paper's
	// Table II device). Validated at construction.
	Cfg config.Config
	// Catalogue are the kernels jobs may reference (default: kernels.All()).
	Catalogue []kernels.Profile
	// Workers is the simulation worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO job queue; submissions beyond it get 429
	// (default: 64).
	QueueDepth int
	// JobTimeout caps each job's wall time (default: 2m). Requests may
	// shorten but not extend it.
	JobTimeout time.Duration
	// DefaultCycles is the budget for requests that omit cycles (default:
	// 300000, matching cmd/dasesim).
	DefaultCycles uint64
	// MaxCycles rejects outsized budgets at submission (default: 20000000).
	MaxCycles uint64
	// MaxJobs bounds the retained job records; the oldest terminal jobs are
	// forgotten beyond it (default: 4096).
	MaxJobs int
	// JournalPath enables the durable job journal at this file. Empty (the
	// default) keeps all job state in memory, as before.
	JournalPath string
	// MaxRetries is how many extra attempts a job failing on a transient
	// error gets before it is marked failed (default: 2; negative disables
	// retries).
	MaxRetries int
	// RetryBaseDelay is the backoff before the first retry; attempt n waits
	// up to RetryBaseDelay<<(n-1), capped at RetryMaxDelay, with full jitter
	// (defaults: 25ms base, 1s cap).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// ShedHighWater is the queue length at which admission control starts
	// shedding submissions whose result is not already cached (default:
	// 3/4 of QueueDepth; negative disables shedding).
	ShedHighWater int
	// LongPollMax clamps the wait_ms parameter of GET /v1/jobs/{id}
	// (default: 60s).
	LongPollMax time.Duration
	// CheckInvariants runs every simulation with the engine's runtime
	// validation sweep (sim.WithInvariantChecks): pool hygiene, request
	// conservation, MSHR agreement and monotonic counters. Checking is
	// observation-only — results and cache keys are unchanged — but costs
	// simulation throughput, so it defaults to off; a violation fails the
	// job with an invariant panic instead of returning corrupt numbers.
	CheckInvariants bool
	// Logger receives structured request and job logs (default:
	// slog.Default()). Use slog.New(slog.NewTextHandler(io.Discard, nil))
	// to silence.
	Logger *slog.Logger
	// TraceEvents enables per-job event tracing with a ring retaining the
	// most recent N events per job: lifecycle transitions plus, for jobs
	// that actually simulate, engine and DASE scheduler events. Traces are
	// served at GET /v1/jobs/{id}/trace. 0 disables tracing (the default)
	// unless TraceDir is set, which implies telemetry.DefaultCapacity.
	TraceEvents int
	// TraceDir, when set, additionally writes each finished job's trace as
	// Chrome trace-event JSON to <TraceDir>/<jobID>.trace.json.
	TraceDir string
	// NodeID, when set, prefixes job IDs ("<NodeID>-job-7" instead of
	// "job-7") so IDs stay globally unique — and routable — across a
	// multi-node dased cluster. Must not contain "-job-" or "/".
	NodeID string
	// TraceSeed seeds the span-ID source so tests get reproducible trace
	// IDs; 0 (the default) derives a per-node seed from NodeID, keeping IDs
	// distinct across cluster members.
	TraceSeed uint64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Cfg.NumSMs == 0 {
		o.Cfg = config.Default()
	}
	if o.Catalogue == nil {
		o.Catalogue = kernels.All()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 2 * time.Minute
	}
	if o.DefaultCycles == 0 {
		o.DefaultCycles = 300_000
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 20_000_000
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 2
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 25 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = time.Second
	}
	switch {
	case o.ShedHighWater == 0:
		o.ShedHighWater = o.QueueDepth * 3 / 4
		if o.ShedHighWater < 1 {
			o.ShedHighWater = 1
		}
	case o.ShedHighWater < 0:
		o.ShedHighWater = o.QueueDepth + 1 // never reached: shedding off
	}
	if o.LongPollMax <= 0 {
		o.LongPollMax = 60 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.TraceDir != "" && o.TraceEvents == 0 {
		o.TraceEvents = telemetry.DefaultCapacity
	}
	if o.TraceEvents < 0 {
		o.TraceEvents = 0
	}
	return o
}

// snapshotRetention caps the interval snapshots each simulation keeps:
// comfortably above MaxCycles/IntervalCycles at the defaults, so results
// are normally untruncated. Whole-run aggregates are exact regardless.
const snapshotRetention = 4096

// estimateMaxBody bounds estimate request bodies and NDJSON stream lines,
// in bytes.
const estimateMaxBody = 1 << 20

// Server is the simulation-as-a-service daemon core. Construct with New,
// start the worker pool with Start, serve Handler over HTTP, and stop with
// Shutdown.
type Server struct {
	opts    Options
	cache   *simcache.Memory
	metrics *Metrics
	queue   chan *Job
	journal *journal.Journal
	est     *estimate.Service
	spans   *telemetry.SpanSource

	baseCtx    context.Context
	baseCancel context.CancelFunc
	drainCh    chan struct{} // closed when draining begins; wakes retry backoffs
	wg         sync.WaitGroup

	// draining is set once, under mu (which orders it with the queue), and
	// read lock-free by the estimate path, which touches nothing else here.
	draining atomic.Bool

	mu          sync.Mutex
	rng         *rand.Rand                        // backoff jitter; guarded by mu
	jitterFn    func(time.Duration) time.Duration // test hook; nil means full jitter
	jobs        map[string]*Job
	jobOrder    []string // submission order, for listing and record eviction
	nextID      uint64
	started     bool
	readyChecks []readyCheck // extra readiness conditions (cluster quorum)
}

// readyCheck is one named readiness condition; fn returns nil when ready.
type readyCheck struct {
	name string
	fn   func() error
}

// New builds a Server with the given options. When a journal path is
// configured, New replays it: terminal jobs become queryable records (their
// results re-seed the cache), non-terminal jobs are re-enqueued, and the
// journal is compacted to the recovered state.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if len(opts.Catalogue) == 0 {
		return nil, fmt.Errorf("server: empty kernel catalogue")
	}
	if strings.Contains(opts.NodeID, "-job-") || strings.ContainsAny(opts.NodeID, "/ ") {
		return nil, fmt.Errorf("server: invalid node id %q", opts.NodeID)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		cache:      simcache.NewMemory(simcache.DefaultMaxEntries),
		queue:      make(chan *Job, opts.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		drainCh:    make(chan struct{}),
		rng:        rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
		jobs:       map[string]*Job{},
	}
	seed := opts.TraceSeed
	if seed == 0 {
		// FNV-1a over the node ID: distinct nodes mint distinct span IDs
		// even when every TraceSeed is left defaulted.
		seed = 14695981039346656037
		for i := 0; i < len(opts.NodeID); i++ {
			seed = (seed ^ uint64(opts.NodeID[i])) * 1099511628211
		}
	}
	s.spans = telemetry.NewSpanSource(seed)
	s.est = estimate.NewService(estimate.Options{Cfg: opts.Cfg})
	s.metrics = newMetrics(
		func() int { return len(s.queue) },
		func() (uint64, uint64, uint64, int) {
			st := s.cache.Stats()
			return st.Hits, st.Misses, st.Evictions, st.Entries
		},
	)
	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			cancel()
			return nil, fmt.Errorf("server: trace dir: %w", err)
		}
	}
	if opts.JournalPath != "" {
		jnl, records, err := journal.Open(opts.JournalPath)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.journal = jnl
		s.metrics.setJournalRecords(jnl.Len)
		s.replay(records)
	}
	return s, nil
}

// journal payloads. submittedData carries the request so replay can rebuild
// the plan; finishedData snapshots everything a terminal job needs to stay
// queryable across restarts.
type submittedData struct {
	Request JobRequest `json:"request"`
	// Trace context, as zero-padded hex so the journal stays greppable.
	// Restored on replay and carried through hand-off, the cross-node job
	// timeline survives the crash it is most interesting for.
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
}

// spanWire renders a span context in the journal's hex form.
func spanWire(sc telemetry.SpanContext) (traceID, spanID, parentID string) {
	return telemetry.FormatSpanID(sc.TraceID), telemetry.FormatSpanID(sc.SpanID), telemetry.FormatSpanID(sc.ParentID)
}

// spanFromWire parses the journal's hex span form, tolerating absent or
// malformed fields (old journals carry none).
func spanFromWire(traceID, spanID, parentID string) telemetry.SpanContext {
	var sc telemetry.SpanContext
	sc.TraceID, _ = telemetry.ParseSpanID(traceID)
	sc.SpanID, _ = telemetry.ParseSpanID(spanID)
	sc.ParentID, _ = telemetry.ParseSpanID(parentID)
	return sc
}

type startedData struct {
	Attempt int `json:"attempt"`
}

type finishedData struct {
	Status      Status     `json:"status"`
	Error       string     `json:"error,omitempty"`
	CacheHit    bool       `json:"cache_hit,omitempty"`
	Attempts    int        `json:"attempts,omitempty"`
	ForwardedTo string     `json:"forwarded_to,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// appendJournal commits one lifecycle record; it is a no-op without a
// journal. data must be JSON-marshalable.
func (s *Server) appendJournal(ctx context.Context, op, jobID string, data any) error {
	if s.journal == nil {
		return nil
	}
	rec := journal.Record{Op: op, JobID: jobID}
	if data != nil {
		raw, err := json.Marshal(data)
		if err != nil {
			return fmt.Errorf("journal payload: %w", err)
		}
		rec.Data = raw
	}
	return s.journal.Append(ctx, rec)
}

// journalAppendTimeout bounds journal appends that are not already scoped to
// a job context. Several appenders run while holding s.mu; without a bound, a
// hung fsync (or an injected sleep fault) would wedge the whole server.
const journalAppendTimeout = 3 * time.Second

// appendJournalBounded is appendJournal with its own deadline, for call sites
// whose surrounding context is unbounded (submit, cancel, finalize).
func (s *Server) appendJournalBounded(op, jobID string, data any) error {
	if s.journal == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), journalAppendTimeout)
	defer cancel()
	return s.appendJournal(ctx, op, jobID, data)
}

// replay rebuilds job state from journal records at construction time:
// terminal jobs are restored verbatim (and their results re-seed the result
// cache), non-terminal jobs are re-enqueued for execution. Runs before
// Start, so the queue sends below cannot race workers.
func (s *Server) replay(records []journal.Record) {
	type state struct {
		req      JobRequest
		haveReq  bool
		span     telemetry.SpanContext
		started  time.Time
		submit   time.Time
		finished time.Time
		attempts int
		fin      *finishedData
	}
	states := map[string]*state{}
	var order []string
	for _, rec := range records {
		st, ok := states[rec.JobID]
		if !ok {
			st = &state{}
			states[rec.JobID] = st
			order = append(order, rec.JobID)
		}
		switch rec.Op {
		case journal.OpSubmitted:
			var d submittedData
			if json.Unmarshal(rec.Data, &d) == nil {
				st.req, st.haveReq = d.Request, true
				st.span = spanFromWire(d.TraceID, d.SpanID, d.ParentID)
				st.submit = rec.Time
			}
		case journal.OpStarted:
			var d startedData
			_ = json.Unmarshal(rec.Data, &d)
			st.started = rec.Time
			if d.Attempt > st.attempts {
				st.attempts = d.Attempt
			}
		case journal.OpFinished:
			var d finishedData
			if json.Unmarshal(rec.Data, &d) == nil {
				st.fin = &d
				st.finished = rec.Time
			}
		case journal.OpCanceled:
			st.fin = &finishedData{Status: StatusCanceled, Error: "canceled"}
			st.finished = rec.Time
		}
		// Track the highest numeric job ID so new submissions continue the
		// sequence instead of colliding with replayed ones.
		numeric := strings.TrimPrefix(strings.TrimPrefix(rec.JobID, s.idPrefix()), "job-")
		if n, err := strconv.ParseUint(numeric, 10, 64); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	for _, id := range order {
		st := states[id]
		if !st.haveReq {
			continue // orphan started/finished records from a torn prefix
		}
		job := &Job{
			ID:          id,
			Request:     st.req,
			SubmittedAt: st.submit,
			Attempts:    st.attempts,
			span:        st.span,
			done:        make(chan struct{}),
		}
		switch {
		case st.fin != nil:
			job.Status = st.fin.Status
			job.Error = st.fin.Error
			job.CacheHit = st.fin.CacheHit
			job.ForwardedTo = st.fin.ForwardedTo
			if st.fin.Attempts > job.Attempts {
				job.Attempts = st.fin.Attempts
			}
			job.Result = st.fin.Result
			job.StartedAt = st.started
			job.FinishedAt = st.finished
			close(job.done)
			// Re-seed the result cache so identical submissions after the
			// restart are still cache hits.
			if job.Result != nil && job.Result.Sim != nil {
				if pl, err := s.buildPlan(st.req); err == nil {
					s.cache.Put(pl.key, job.Result.Sim)
				}
			}
		default:
			pl, err := s.buildPlan(st.req)
			if err != nil {
				// The catalogue or limits changed under the journal; the job
				// can no longer run.
				job.Status = StatusFailed
				job.Error = fmt.Sprintf("recovery: %v", err)
				job.FinishedAt = time.Now()
				close(job.done)
			} else if len(s.queue) == cap(s.queue) {
				job.Status = StatusFailed
				job.Error = "recovery: queue full"
				job.FinishedAt = time.Now()
				close(job.done)
				s.metrics.jobsShed.Add(1)
			} else {
				job.Status = StatusQueued
				job.plan = pl
				if s.opts.TraceEvents > 0 {
					job.tracer = telemetry.New(s.opts.TraceEvents)
					job.emit(s.opts.NodeID, telemetry.Event{
						Kind: telemetry.KindJobQueued, Wall: job.SubmittedAt.UnixNano(),
						App: -1, SM: -1, Job: job.ID, Note: "replayed",
					})
				}
				s.queue <- job
			}
		}
		s.jobs[id] = job
		s.jobOrder = append(s.jobOrder, id)
		s.metrics.journalReplayed.Add(1)
	}
	s.evictJobRecordsLocked()
	if err := s.compactLocked(); err != nil {
		s.opts.Logger.Error("journal compact after replay failed", "err", err)
	}
	if n := len(s.jobs); n > 0 {
		s.opts.Logger.Info("journal replayed", "jobs", n, "requeued", len(s.queue))
	}
}

// compactLocked rewrites the journal as a snapshot of the retained jobs
// (submitted + started/finished per job); the caller holds s.mu or is the
// constructor. MaxJobs is honored because eviction trims jobOrder first.
func (s *Server) compactLocked() error {
	if s.journal == nil {
		return nil
	}
	recs := make([]journal.Record, 0, 2*len(s.jobOrder))
	add := func(op, id string, t time.Time, data any) {
		raw, err := json.Marshal(data)
		if err != nil {
			return
		}
		recs = append(recs, journal.Record{Op: op, JobID: id, Time: t, Data: raw})
	}
	for _, id := range s.jobOrder {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		sub := submittedData{Request: j.Request}
		sub.TraceID, sub.SpanID, sub.ParentID = spanWire(j.span)
		add(journal.OpSubmitted, id, j.SubmittedAt, sub)
		switch {
		case j.Status.terminal():
			add(journal.OpFinished, id, j.FinishedAt, finishedData{
				Status: j.Status, Error: j.Error, CacheHit: j.CacheHit,
				Attempts: j.Attempts, ForwardedTo: j.ForwardedTo, Result: j.Result,
			})
		case j.Status == StatusRunning:
			add(journal.OpStarted, id, j.StartedAt, startedData{Attempt: j.Attempts})
		}
	}
	if err := s.journal.Rewrite(recs); err != nil {
		return err
	}
	s.metrics.journalCompactions.Add(1)
	return nil
}

// maybeCompactLocked compacts once the journal holds several times more
// records than there are retained jobs; the caller holds s.mu.
func (s *Server) maybeCompactLocked() {
	if s.journal == nil {
		return
	}
	if s.journal.Len() > 4*len(s.jobs)+16 {
		if err := s.compactLocked(); err != nil {
			s.opts.Logger.Error("journal compact failed", "err", err)
			s.metrics.journalErrors.Add(1)
		}
	}
}

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// beginDrainLocked starts the drain, once: submissions are refused from here
// on, workers see the queue close, and retry backoffs wake. Callers hold mu.
func (s *Server) beginDrainLocked() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.queue)
		close(s.drainCh)
	}
}

// Shutdown gracefully stops the server: no new submissions are accepted,
// queued and running jobs are drained (jobs waiting in retry backoff are
// failed), and when ctx expires before the drain completes the remaining
// jobs are hard-cancelled (still waiting for them to unwind). The journal,
// if any, is closed last. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.beginDrainLocked()
	started := s.started
	s.mu.Unlock()
	if !started {
		if s.journal != nil {
			return s.journal.Close()
		}
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Abort running simulations; they poll their context and unwind in
		// microseconds, so this second wait is short.
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	if s.journal != nil {
		if cerr := s.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// lookup resolves a kernel abbreviation against the catalogue.
func (s *Server) lookup(abbr string) (kernels.Profile, bool) {
	for _, p := range s.opts.Catalogue {
		if p.Abbr == abbr {
			return p, true
		}
	}
	return kernels.Profile{}, false
}

// submit registers and enqueues a job built from req. It returns the job,
// or an error classified by the caller into an HTTP status: ErrQueueFull,
// ErrShed, ErrDraining, ErrJournal, or a validation error.
//
// Ordering is write-ahead: the submitted record is committed to the journal
// before the job becomes visible, so an accepted job always survives a
// crash. Queue capacity is checked under the mutex first (all queue sends
// hold it), which keeps the journal free of records for rejected jobs.
func (s *Server) submit(req JobRequest) (*Job, error) {
	return s.submitSpan(req, telemetry.SpanContext{})
}

// submitSpan is submit continuing the caller's trace context; a zero parent
// starts a new trace.
func (s *Server) submitSpan(req JobRequest, parent telemetry.SpanContext) (*Job, error) {
	pl, err := s.buildPlan(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if len(s.queue) == cap(s.queue) {
		s.metrics.jobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	if len(s.queue) >= s.opts.ShedHighWater {
		// Over the high-water mark only already-cached (cheap) submissions
		// are admitted: graceful degradation sheds the expensive work first.
		if !s.cache.Peek(pl.key) {
			s.metrics.jobsShed.Add(1)
			return nil, ErrShed
		}
	}
	s.nextID++
	job := &Job{
		ID:          fmt.Sprintf("%sjob-%d", s.idPrefix(), s.nextID),
		Request:     req,
		Status:      StatusQueued,
		SubmittedAt: time.Now(),
		plan:        pl,
		// Every job gets a span: a child of the caller's context when the
		// request carried trace headers (or arrived via a forwarding peer),
		// a fresh root otherwise.
		span: s.spans.Child(parent),
		done: make(chan struct{}),
	}
	if s.opts.TraceEvents > 0 {
		job.tracer = telemetry.New(s.opts.TraceEvents)
		job.emit(s.opts.NodeID, telemetry.Event{
			Kind: telemetry.KindJobQueued, Wall: job.SubmittedAt.UnixNano(),
			App: -1, SM: -1, Job: job.ID,
		})
	}
	sub := submittedData{Request: req}
	sub.TraceID, sub.SpanID, sub.ParentID = spanWire(job.span)
	if err := s.appendJournalBounded(journal.OpSubmitted, job.ID, sub); err != nil {
		s.nextID--
		s.metrics.journalErrors.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	s.queue <- job
	s.jobs[job.ID] = job
	s.jobOrder = append(s.jobOrder, job.ID)
	s.evictJobRecordsLocked()
	s.metrics.jobsSubmitted.Add(1)
	return job, nil
}

// evictJobRecordsLocked forgets the oldest terminal job records beyond
// MaxJobs; the caller holds s.mu.
//
// Removing index i shifts the i older records — all live — one slot right
// and drops the front slot: O(i), not O(len(jobOrder)). Each drop costs one
// slot of capacity and each append uses one spare slot; append reallocates
// to about twice the length when they meet, so copying amortises to O(1) a
// submission and cap stays a small multiple of the retained records.
func (s *Server) evictJobRecordsLocked() {
	for len(s.jobs) > s.opts.MaxJobs {
		evicted := false
		for i, id := range s.jobOrder {
			j, ok := s.jobs[id]
			if !ok {
				continue
			}
			if j.Status.terminal() {
				delete(s.jobs, id)
				copy(s.jobOrder[1:i+1], s.jobOrder[:i])
				s.jobOrder[0] = "" // the backing array outlives the reslice
				s.jobOrder = s.jobOrder[1:]
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; keep the records
		}
	}
}

// cancelJob cancels a queued or running job. It reports whether the job
// exists and whether it could be cancelled.
func (s *Server) cancelJob(id string) (found, canceled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return false, false
	}
	switch job.Status {
	case StatusQueued:
		// The worker (or the retry requeue, if the job was in backoff) will
		// observe the status and skip it.
		job.Status = StatusCanceled
		job.Error = "canceled"
		job.FinishedAt = time.Now()
		close(job.done)
		s.metrics.jobsCanceled.Add(1)
		job.emit(s.opts.NodeID, telemetry.Event{
			Kind: telemetry.KindJobDone, Wall: job.FinishedAt.UnixNano(),
			App: -1, SM: -1, Job: job.ID, Note: string(StatusCanceled),
		})
		if err := s.appendJournalBounded(journal.OpCanceled, job.ID, nil); err != nil {
			s.metrics.journalErrors.Add(1)
			s.opts.Logger.Error("journal append canceled failed", "job", job.ID, "err", err)
		}
		return true, true
	case StatusRunning:
		job.cancel()
		return true, true
	default:
		return true, false
	}
}

// getJob returns the job record for id.
func (s *Server) getJob(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// idPrefix is the job-ID prefix implied by NodeID ("" single-node,
// "<node>-" in a cluster).
func (s *Server) idPrefix() string {
	if s.opts.NodeID == "" {
		return ""
	}
	return s.opts.NodeID + "-"
}

// NodeID returns the configured node identity ("" single-node).
func (s *Server) NodeID() string { return s.opts.NodeID }

// Submit validates, registers and enqueues a job, returning its view. It is
// the in-process equivalent of POST /v1/jobs; map errors to HTTP statuses
// with SubmitStatus. The cluster layer calls it for locally-routed work.
func (s *Server) Submit(req JobRequest) (JobView, error) {
	return s.SubmitWithSpan(req, telemetry.SpanContext{})
}

// SubmitWithSpan is Submit continuing an existing trace: the job's span
// becomes a child of parent, so a forwarded, stolen or handed-off job stays
// on the timeline the submitting node started. A zero parent starts a new
// trace.
func (s *Server) SubmitWithSpan(req JobRequest, parent telemetry.SpanContext) (JobView, error) {
	job, err := s.submitSpan(req, parent)
	if err != nil {
		return JobView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return job.view(), nil
}

// JobSpan returns a job's trace context, for layers that relay the job
// onwards (the cluster's steal response carries it to the thief).
func (s *Server) JobSpan(id string) (telemetry.SpanContext, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return telemetry.SpanContext{}, false
	}
	return j.span, true
}

// View returns the view of one job.
func (s *Server) View(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Views returns every retained job view in submission order.
func (s *Server) Views() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]JobView, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		if j, ok := s.jobs[id]; ok {
			views = append(views, j.view())
		}
	}
	return views
}

// QueueLen reports how many jobs are waiting in the queue; heartbeats carry
// it so peers can steal from saturated nodes.
func (s *Server) QueueLen() int { return len(s.queue) }

// RouteKey returns the content address of the request's main simulation —
// the same key the result cache uses — or a validation error. The cluster
// layer consistent-hashes it so identical submissions land on (and share the
// cache of) one node.
func (s *Server) RouteKey(req JobRequest) (string, error) {
	pl, err := s.buildPlan(req)
	if err != nil {
		return "", err
	}
	return pl.key, nil
}

// SeedResult inserts a finished job's simulation result into the cache
// without running anything, reporting whether it was new. Hand-off uses it
// to preserve a dead node's completed work; reconciliation after a
// partition uses the report to count duplicated effort.
func (s *Server) SeedResult(req JobRequest, res *JobResult) bool {
	if res == nil || res.Sim == nil {
		return false
	}
	key, err := s.RouteKey(req)
	if err != nil {
		return false
	}
	return s.cache.PutIfAbsent(key, res.Sim)
}

// AddReadinessCheck registers an extra named condition /readyz requires; fn
// must be safe for concurrent use and return nil when ready. The cluster
// layer registers its quorum check here. Register before serving traffic.
func (s *Server) AddReadinessCheck(name string, fn func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readyChecks = append(s.readyChecks, readyCheck{name: name, fn: fn})
}

// Ready reports whether the node should receive traffic: nil when ready, or
// the first failing condition. Distinct from liveness (/healthz): a node
// that has not finished starting, is draining, or has lost its quorum is
// alive but must not be routed to.
func (s *Server) Ready() error {
	s.mu.Lock()
	started, draining := s.started, s.draining.Load()
	checks := append([]readyCheck(nil), s.readyChecks...)
	s.mu.Unlock()
	if !started {
		return fmt.Errorf("not started: journal replay or warm-up in progress")
	}
	if draining {
		return fmt.Errorf("draining")
	}
	for _, c := range checks {
		if err := c.fn(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

// MetricsRegistry exposes the server's telemetry registry so co-located
// layers (the cluster node) can register their metrics on the same /metrics
// endpoint.
func (s *Server) MetricsRegistry() *telemetry.Registry { return s.metrics.reg }

// Kill emulates a process kill for tests and abrupt teardown: the journal is
// closed first (no further lifecycle transitions are committed, exactly like
// losing the process), then intake stops and running work is cancelled.
// In-memory state keeps mutating while the workers unwind, but those
// mutations are lost to the journal — only what Append had already fsynced
// survives, which is the point.
func (s *Server) Kill() {
	if s.journal != nil {
		_ = s.journal.Close()
	}
	s.mu.Lock()
	s.beginDrainLocked()
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
}

// JournaledJob is one job reconstructed from another node's journal records
// during hand-off.
type JournaledJob struct {
	ID       string
	Request  JobRequest
	Status   Status
	Result   *JobResult
	Terminal bool
	// Span is the job's trace context as journaled at submission; re-running
	// the job elsewhere continues its original timeline.
	Span telemetry.SpanContext
}

// ExtractJournalJobs reconstructs job states from raw journal records using
// the server's payload schema — the read-side twin of replay, exported so
// the cluster hand-off can interpret a claimed journal. Jobs whose submitted
// record is missing (torn prefix) are dropped; a job with no finished or
// canceled record is non-terminal and must be re-run somewhere.
func ExtractJournalJobs(records []journal.Record) []JournaledJob {
	type state struct {
		req     JobRequest
		haveReq bool
		span    telemetry.SpanContext
		fin     *finishedData
	}
	states := map[string]*state{}
	var order []string
	for _, rec := range records {
		st, ok := states[rec.JobID]
		if !ok {
			st = &state{}
			states[rec.JobID] = st
			order = append(order, rec.JobID)
		}
		switch rec.Op {
		case journal.OpSubmitted:
			var d submittedData
			if json.Unmarshal(rec.Data, &d) == nil {
				st.req, st.haveReq = d.Request, true
				st.span = spanFromWire(d.TraceID, d.SpanID, d.ParentID)
			}
		case journal.OpFinished:
			var d finishedData
			if json.Unmarshal(rec.Data, &d) == nil {
				st.fin = &d
			}
		case journal.OpCanceled:
			st.fin = &finishedData{Status: StatusCanceled}
		}
	}
	var out []JournaledJob
	for _, id := range order {
		st := states[id]
		if !st.haveReq {
			continue
		}
		jj := JournaledJob{ID: id, Request: st.req, Status: StatusQueued, Span: st.span}
		if st.fin != nil {
			jj.Status = st.fin.Status
			jj.Result = st.fin.Result
			jj.Terminal = st.fin.Status.terminal()
		}
		out = append(out, jj)
	}
	return out
}
