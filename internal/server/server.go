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

// estimateMaxBody bounds estimate request bodies, in bytes.
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

	baseCtx    context.Context
	baseCancel context.CancelFunc
	drainCh    chan struct{} // closed when draining begins; wakes retry backoffs
	wg         sync.WaitGroup

	// draining is set once, under mu (which orders it with the queue), and
	// read lock-free by the estimate path, which touches nothing else here.
	draining atomic.Bool

	mu       sync.Mutex
	rng      *rand.Rand                        // backoff jitter; guarded by mu
	jitterFn func(time.Duration) time.Duration // test hook; nil means full jitter
	jobs     map[string]*Job
	jobOrder []string // submission order, for listing and record eviction
	nextID   uint64
	started  bool
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
}

type startedData struct {
	Attempt int `json:"attempt"`
}

type finishedData struct {
	Status   Status     `json:"status"`
	Error    string     `json:"error,omitempty"`
	CacheHit bool       `json:"cache_hit,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
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

// replay rebuilds job state from journal records at construction time, in
// one pass that decodes each payload once: terminal jobs are restored
// verbatim (and their results re-seed the result cache), non-terminal jobs
// are re-enqueued for execution. Jobs come back in first-record order, with
// the highest attempt count any started or finished record journaled. A job
// whose submitted record is missing (a torn prefix) is dropped. Runs before
// Start, so the queue sends below cannot race workers.
func (s *Server) replay(records []journal.Record) {
	byID := map[string]*Job{}
	submitted := map[string]bool{}
	var order []*Job
	for _, rec := range records {
		// Track the highest numeric job ID, orphan records included, so new
		// submissions continue the sequence instead of colliding with
		// replayed ones.
		if n, err := strconv.ParseUint(strings.TrimPrefix(rec.JobID, "job-"), 10, 64); err == nil && n > s.nextID {
			s.nextID = n
		}
		job, ok := byID[rec.JobID]
		if !ok {
			job = &Job{ID: rec.JobID, Status: StatusQueued, done: make(chan struct{})}
			byID[rec.JobID] = job
			order = append(order, job)
		}
		switch rec.Op {
		case journal.OpSubmitted:
			var d submittedData
			if json.Unmarshal(rec.Data, &d) == nil {
				job.Request, submitted[job.ID] = d.Request, true
				job.SubmittedAt = rec.Time
			}
		case journal.OpStarted:
			var d startedData
			_ = json.Unmarshal(rec.Data, &d)
			job.StartedAt = rec.Time
			job.Attempts = max(job.Attempts, d.Attempt)
		case journal.OpFinished:
			var d finishedData
			if json.Unmarshal(rec.Data, &d) == nil {
				job.Attempts = max(job.Attempts, d.Attempts)
				if d.Status.terminal() {
					job.Status, job.Error, job.Result, job.CacheHit = d.Status, d.Error, d.Result, d.CacheHit
					job.FinishedAt = rec.Time
				}
			}
		case journal.OpCanceled:
			job.Status, job.Error = StatusCanceled, "canceled"
			job.FinishedAt = rec.Time
		}
	}
	for _, job := range order {
		if !submitted[job.ID] {
			continue
		}
		if job.Status.terminal() {
			close(job.done)
			// Re-seed the result cache so identical submissions after the
			// restart are still cache hits.
			if job.Result != nil && job.Result.Sim != nil {
				if pl, err := s.buildPlan(job.Request); err == nil {
					s.cache.Put(pl.key, job.Result.Sim)
				}
			}
		} else {
			// Neither finished nor canceled: the job runs again from the
			// queue, so an earlier attempt's start time is not its own.
			job.StartedAt = time.Time{}
			pl, err := s.buildPlan(job.Request)
			switch {
			case err != nil:
				// The catalogue, limits or policies changed under the
				// journal; the job can no longer run.
				job.Status = StatusFailed
				job.Error = fmt.Sprintf("recovery: %v", err)
				job.FinishedAt = time.Now()
				close(job.done)
			case len(s.queue) == cap(s.queue):
				job.Status = StatusFailed
				job.Error = "recovery: queue full"
				job.FinishedAt = time.Now()
				close(job.done)
				s.metrics.jobsShed.Add(1)
			default:
				job.plan = pl
				if s.opts.TraceEvents > 0 {
					job.tracer = telemetry.New(s.opts.TraceEvents)
					job.tracer.Emit(telemetry.Event{
						Kind: telemetry.KindJobQueued, Wall: job.SubmittedAt.UnixNano(),
						App: -1, SM: -1, Job: job.ID, Note: "replayed",
					})
				}
				s.queue <- job
			}
		}
		s.jobs[job.ID] = job
		s.jobOrder = append(s.jobOrder, job.ID)
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
		add(journal.OpSubmitted, id, j.SubmittedAt, submittedData{Request: j.Request})
		switch {
		case j.Status.terminal():
			add(journal.OpFinished, id, j.FinishedAt, finishedData{
				Status: j.Status, Error: j.Error, CacheHit: j.CacheHit,
				Attempts: j.Attempts, Result: j.Result,
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
		ID:          fmt.Sprintf("job-%d", s.nextID),
		Request:     req,
		Status:      StatusQueued,
		SubmittedAt: time.Now(),
		plan:        pl,
		done:        make(chan struct{}),
	}
	if s.opts.TraceEvents > 0 {
		job.tracer = telemetry.New(s.opts.TraceEvents)
		job.tracer.Emit(telemetry.Event{
			Kind: telemetry.KindJobQueued, Wall: job.SubmittedAt.UnixNano(),
			App: -1, SM: -1, Job: job.ID,
		})
	}
	if err := s.appendJournalBounded(journal.OpSubmitted, job.ID, submittedData{Request: req}); err != nil {
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
		job.tracer.Emit(telemetry.Event{
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

// Submit validates, registers and enqueues a job, returning its view. It is
// the in-process equivalent of POST /v1/jobs; SubmitStatus maps its errors
// to HTTP statuses.
func (s *Server) Submit(req JobRequest) (JobView, error) {
	job, err := s.submit(req)
	if err != nil {
		return JobView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return job.view(), nil
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

// Ready reports whether the daemon should receive traffic: nil when ready,
// or the failing condition. Distinct from liveness (/healthz): a daemon that
// has not finished starting or is draining is alive but must not be sent
// work.
func (s *Server) Ready() error {
	s.mu.Lock()
	started, draining := s.started, s.draining.Load()
	s.mu.Unlock()
	if !started {
		return fmt.Errorf("not started: journal replay or warm-up in progress")
	}
	if draining {
		return fmt.Errorf("draining")
	}
	return nil
}
