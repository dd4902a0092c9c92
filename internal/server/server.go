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
//   - with a cache directory configured, every simulated result is also a
//     file named by its content address; simulations are deterministic, so
//     after a restart a client resubmits its requests and every result
//     finished before the crash is a disk hit with the same bytes, while
//     job IDs, which carry a digest of the request, never name a different
//     request than they did before;
//   - Shutdown stops intake, drains queued and running jobs, and
//     hard-cancels whatever is still running when its context expires.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/estimate"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
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
	// CacheDir backs the result cache with this directory (created if
	// needed): one file per content address, read on a miss and written
	// after every simulation, so finished results survive a restart and are
	// shared with cmd/experiments -cache-dir. Empty (the default) keeps
	// results in memory only.
	CacheDir string
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
	est     *estimate.Service
	// simulate runs a plan's main simulation; New sets it to runSim, and
	// tests substitute it to make a job panic or overrun its deadline.
	simulate func(context.Context, plan, *telemetry.Tracer) (*sim.Result, error)

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// draining is set once, under mu (which orders it with the queue), and
	// read lock-free by the estimate path, which touches nothing else here.
	draining atomic.Bool

	mu       sync.Mutex
	jobs     map[string]*Job
	jobOrder []string // submission order, for listing and record eviction
	nextID   uint64
	started  bool
}

// New builds a Server with the given options. With a cache directory, the
// results in it are hits from the first submission on.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if len(opts.Catalogue) == 0 {
		return nil, fmt.Errorf("server: empty kernel catalogue")
	}
	cache := simcache.NewMemory(simcache.DefaultMaxEntries)
	if opts.CacheDir != "" {
		var err error
		if cache, err = simcache.NewDir(simcache.DefaultMaxEntries, opts.CacheDir); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: trace dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		cache:      cache,
		queue:      make(chan *Job, opts.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
	}
	s.simulate = s.runSim
	s.est = estimate.NewService(estimate.Options{Cfg: opts.Cfg})
	s.metrics = newMetrics(func() int { return len(s.queue) }, s.cache.Stats)
	return s, nil
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
// on and workers see the queue close. Callers hold mu.
func (s *Server) beginDrainLocked() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.queue)
	}
}

// Shutdown gracefully stops the server: no new submissions are accepted,
// queued and running jobs are drained, and when ctx expires before the drain
// completes the remaining jobs are hard-cancelled (still waiting for them to
// unwind). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.beginDrainLocked()
	started := s.started
	s.mu.Unlock()
	if !started {
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
// ErrShed, ErrDraining, or a validation error.
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
		ID:          fmt.Sprintf("job-%s-%d", pl.digest, s.nextID),
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
		// The worker will observe the status and skip it.
		job.Status = StatusCanceled
		job.Error = "canceled"
		job.FinishedAt = time.Now()
		close(job.done)
		s.metrics.jobsCanceled.Add(1)
		job.tracer.Emit(telemetry.Event{
			Kind: telemetry.KindJobDone, Wall: job.FinishedAt.UnixNano(),
			App: -1, SM: -1, Job: job.ID, Note: string(StatusCanceled),
		})
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
		return fmt.Errorf("not started")
	}
	if draining {
		return fmt.Errorf("draining")
	}
	return nil
}
