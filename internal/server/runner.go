package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"dasesim/internal/core"
	"dasesim/internal/faults"
	"dasesim/internal/journal"
	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
	"dasesim/internal/workload"
)

// transientErr marks a failure as retry-eligible without polluting the
// user-visible message. Injected faults (faults.ErrInjected) are also
// treated as transient.
type transientErr struct{ err error }

func (e transientErr) Error() string { return e.err.Error() }
func (e transientErr) Unwrap() error { return e.err }

// isTransient reports whether err should be retried: injected faults,
// journal I/O failures, and worker panics. Context cancellation and
// deadlines are never transient — a cancel is a decision and a determinstic
// simulation that timed out once will time out again.
func isTransient(err error) bool {
	var te transientErr
	return errors.As(err, &te) || errors.Is(err, faults.ErrInjected)
}

// worker drains the job queue until it is closed by Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one queued job, converting panics and context errors into
// terminal job states (or a retry) instead of process death.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.Status != StatusQueued {
		// Canceled while waiting in the queue; nothing to run.
		s.mu.Unlock()
		return
	}
	job.Status = StatusRunning
	job.Attempts++
	job.StartedAt = time.Now()
	ctx, cancel := context.WithTimeout(s.baseCtx, job.plan.timeout)
	job.cancel = cancel
	attempt := job.Attempts
	queueWait := job.StartedAt.Sub(job.SubmittedAt)
	s.mu.Unlock()

	if attempt == 1 {
		s.metrics.queueWait.Observe(queueWait.Seconds())
	}
	job.emit(s.opts.NodeID, telemetry.Event{
		Kind: telemetry.KindJobStarted, Wall: job.StartedAt.UnixNano(),
		App: -1, SM: -1, Job: job.ID, Attempt: int32(attempt),
	})

	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			s.finishJob(job, nil, false, transientErr{fmt.Errorf("panic: %v", r)})
		}
	}()

	// Commit the started record before simulating; a journal that cannot
	// take the record is a transient failure of this attempt.
	if err := s.appendJournal(ctx, journal.OpStarted, job.ID, startedData{Attempt: attempt}); err != nil {
		s.metrics.journalErrors.Add(1)
		if ctx.Err() != nil {
			err = ctx.Err()
		} else {
			err = transientErr{fmt.Errorf("journal append: %w", err)}
		}
		s.finishJob(job, nil, false, err)
		return
	}
	if err := faults.FireCtx(ctx, "server.worker"); err != nil {
		s.finishJob(job, nil, false, err)
		return
	}

	res, cacheHit, err := s.execute(ctx, job.plan, job.tracer)
	s.finishJob(job, res, cacheHit, err)
}

// finishJob moves the job to a terminal state — or, when the failure is
// transient and attempts remain, schedules a retry with backoff.
func (s *Server) finishJob(job *Job, res *JobResult, cacheHit bool, err error) {
	s.mu.Lock()
	if job.Status != StatusRunning {
		s.mu.Unlock()
		return
	}
	switch {
	case err == nil:
		s.finalizeLocked(job, StatusDone, "", res, cacheHit)
	case errors.Is(err, context.Canceled):
		s.finalizeLocked(job, StatusCanceled, "canceled", nil, false)
	case errors.Is(err, context.DeadlineExceeded):
		s.finalizeLocked(job, StatusFailed, fmt.Sprintf("timeout after %v", job.plan.timeout), nil, false)
	case isTransient(err) && job.Attempts <= s.opts.MaxRetries && !s.draining.Load():
		job.Status = StatusQueued
		job.LastError = err.Error()
		attempt := job.Attempts
		delay := s.backoffLocked(attempt)
		s.metrics.jobRetries.Add(1)
		s.mu.Unlock()
		job.emit(s.opts.NodeID, telemetry.Event{
			Kind: telemetry.KindJobRetry, Wall: time.Now().UnixNano(),
			App: -1, SM: -1, Job: job.ID, Attempt: int32(attempt), Note: err.Error(),
		})
		s.opts.Logger.Warn("job retry scheduled",
			"job", job.ID, "attempt", attempt, "retry_in", delay.Round(time.Millisecond), "err", err)
		s.requeueAfterBackoff(job, delay)
		return
	default:
		s.finalizeLocked(job, StatusFailed, err.Error(), nil, false)
	}
	wall := job.FinishedAt.Sub(job.StartedAt)
	status, hit, attempts := job.Status, job.CacheHit, job.Attempts
	s.mu.Unlock()
	s.metrics.observeJob(wall)
	s.writeTraceFile(job)
	s.opts.Logger.Info("job finished",
		"job", job.ID, "status", status, "cache_hit", hit, "attempts", attempts,
		"wall", wall.Round(time.Millisecond))
}

// finalizeLocked commits a terminal transition: job fields, metrics, the
// done channel, and (best-effort) the journal's finished record. The caller
// holds s.mu. A finished record that fails to commit is only logged: the
// job's state is authoritative in memory, and on a crash the journal's
// non-terminal records make the job re-run — which is semantically invisible
// because results are deterministic and content-addressed.
func (s *Server) finalizeLocked(job *Job, status Status, errMsg string, res *JobResult, cacheHit bool) {
	job.Status = status
	job.Error = errMsg
	job.Result = res
	job.CacheHit = cacheHit
	job.FinishedAt = time.Now()
	close(job.done)
	job.emit(s.opts.NodeID, telemetry.Event{
		Kind: telemetry.KindJobDone, Wall: job.FinishedAt.UnixNano(),
		App: -1, SM: -1, Job: job.ID, Note: string(status),
		Attempt: int32(job.Attempts), CacheHit: cacheHit,
	})
	switch status {
	case StatusDone:
		s.metrics.jobsCompleted.Add(1)
	case StatusCanceled:
		s.metrics.jobsCanceled.Add(1)
	case StatusForwarded:
		s.metrics.jobsForwarded.Add(1)
	default:
		s.metrics.jobsFailed.Add(1)
	}
	if err := s.appendJournalBounded(journal.OpFinished, job.ID, finishedData{
		Status: status, Error: errMsg, CacheHit: cacheHit, Attempts: job.Attempts,
		ForwardedTo: job.ForwardedTo, Result: res,
	}); err != nil {
		s.metrics.journalErrors.Add(1)
		s.opts.Logger.Error("journal append finished failed", "job", job.ID, "err", err)
	}
	s.maybeCompactLocked()
}

// writeTraceFile dumps a finished job's trace as Chrome trace-event JSON into
// TraceDir. Called outside the server mutex; file I/O must not block job
// state transitions.
func (s *Server) writeTraceFile(job *Job) {
	if s.opts.TraceDir == "" || job.tracer == nil {
		return
	}
	path := fmt.Sprintf("%s/%s.trace.json", s.opts.TraceDir, job.ID)
	f, err := os.Create(path)
	if err != nil {
		s.opts.Logger.Error("trace file create failed", "job", job.ID, "err", err)
		return
	}
	err = telemetry.WriteChromeTrace(f, job.tracer.Events())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.opts.Logger.Error("trace file write failed", "job", job.ID, "path", path, "err", err)
	}
}

// backoffLocked returns the capped exponential backoff with full jitter for
// the given attempt number; the caller holds s.mu (the jitter PRNG is not
// concurrency-safe).
func (s *Server) backoffLocked(attempt int) time.Duration {
	d := s.opts.RetryBaseDelay << uint(attempt-1)
	if d <= 0 || d > s.opts.RetryMaxDelay {
		d = s.opts.RetryMaxDelay
	}
	if s.jitterFn != nil {
		return s.jitterFn(d)
	}
	return time.Duration(s.rng.Int64N(int64(d)) + 1)
}

// requeueAfterBackoff sleeps out the backoff (cut short when the server
// starts draining) and puts the job back on the queue. A job canceled during
// its backoff stays canceled; a drain or full queue during backoff fails the
// job with its last transient error.
func (s *Server) requeueAfterBackoff(job *Job, delay time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-s.drainCh:
			t.Stop()
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if job.Status != StatusQueued {
			return // canceled while backing off
		}
		if s.draining.Load() || len(s.queue) == cap(s.queue) {
			s.finalizeLocked(job, StatusFailed, "retry abandoned: "+job.LastError, nil, false)
			return
		}
		s.queue <- job
	}()
}

// TrySteal pops one waiting job off the queue for another node to run,
// finalizing the local record as forwarded-to-thief. It never blocks: when
// the queue is empty (or holds only already-canceled entries) it reports
// false and the victim keeps nothing less. The journal's finished record
// carries the forward, so even a crash right after the steal cannot
// resurrect the job here — the thief journals it under its own ID.
func (s *Server) TrySteal(thief string) (JobRequest, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return JobRequest{}, "", false
	}
	for {
		select {
		case job, ok := <-s.queue:
			if !ok {
				return JobRequest{}, "", false
			}
			if job.Status != StatusQueued {
				continue // canceled while queued; already terminal
			}
			job.ForwardedTo = thief
			s.finalizeLocked(job, StatusForwarded, "", nil, false)
			return job.Request, job.ID, true
		default:
			return JobRequest{}, "", false
		}
	}
}

// execute runs the plan's simulation through the content-addressed cache and
// optionally augments it with slowdown metrics against cached alone
// baselines. The returned cacheHit refers to the main simulation. tr, when
// non-nil, receives the simulation's trace events (cache hits skip the
// simulation, so hit jobs carry lifecycle events only) and, for slowdown
// jobs, the measured ground truth.
func (s *Server) execute(ctx context.Context, p plan, tr *telemetry.Tracer) (*JobResult, bool, error) {
	res, cacheHit, err := s.cachedSim(ctx, p.key, func(ctx context.Context) (*sim.Result, error) {
		return s.runSim(ctx, p, tr)
	})
	if err != nil {
		return nil, false, err
	}
	out := &JobResult{Sim: res}
	if p.slowdown {
		// Alone baselines are addressed with workload.AloneKey, so they are
		// simulated at most once across slowdown computations and explicit
		// alone-mode jobs with the same budget and seed.
		out.Slowdowns = make([]float64, len(p.profiles))
		out.AloneIPC = make([]float64, len(p.profiles))
		for i, prof := range p.profiles {
			aloneKey := workload.AloneKey(s.opts.Cfg, prof, p.cycles, p.seed)
			alone, _, err := s.cachedSim(ctx, aloneKey, func(ctx context.Context) (*sim.Result, error) {
				return sim.RunAloneContext(ctx, s.opts.Cfg, prof, p.cycles, p.seed, s.simOpts()...)
			})
			if err != nil {
				return nil, false, fmt.Errorf("alone baseline %s: %w", prof.Abbr, err)
			}
			out.AloneIPC[i] = alone.Apps[0].IPC
			out.Slowdowns[i] = metrics.Slowdown(alone.Apps[0].IPC, res.Apps[i].IPC)
		}
		out.Unfairness = metrics.Unfairness(out.Slowdowns)
		out.HarmonicSpeedup = metrics.HarmonicSpeedup(out.Slowdowns)
		s.observeEstimation(p, res, out.Slowdowns, tr)
	}
	return out, cacheHit, nil
}

// observeEstimation scores DASE's per-interval slowdown estimates against the
// job's measured whole-run slowdowns: each interval's relative error feeds
// the dased_estimation_error histogram, and with tracing enabled the ground
// truth is recorded as slowdown.actual events (making the trace
// self-contained for dasetrace). For even-policy jobs — where no scheduler
// ran DASE during the simulation — the per-interval estimates are also
// emitted as dase.app events here. This is pure observation off the hot path:
// the estimator re-runs over the result's retained snapshots.
func (s *Server) observeEstimation(p plan, res *sim.Result, actual []float64, tr *telemetry.Tracer) {
	if p.mode == "alone" {
		return
	}
	est := core.New(core.Options{})
	emitDASE := tr != nil && p.policy == "even"
	for si := range res.Snapshots {
		snap := &res.Snapshots[si]
		det := est.EstimateDetailed(snap)
		for i := range det {
			if i < len(actual) && actual[i] > 0 {
				s.metrics.estError.Observe(abs(det[i].Slowdown-actual[i]) / actual[i])
			}
			if emitDASE {
				tr.Emit(telemetry.Event{
					Kind: telemetry.KindDASEApp, Cycle: snap.Cycle,
					App: int32(i), SM: -1, Note: p.policy,
					Alpha: det[i].Alpha, BLP: snap.Apps[i].BLP,
					TimeBank: det[i].TimeBank, TimeRow: det[i].TimeRow,
					TimeLLC: det[i].TimeLLC, MBB: det[i].MBB,
					Est: det[i].Slowdown, SMs: int32(snap.Apps[i].SMs),
				})
			}
		}
	}
	if tr != nil {
		for i, a := range actual {
			tr.Emit(telemetry.Event{
				Kind: telemetry.KindActual, Cycle: res.Cycles,
				App: int32(i), SM: -1, Actual: a,
			})
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// cachedSim resolves one simulation through the result cache, counting the
// cycles of runs that actually simulated (cache hits are free).
func (s *Server) cachedSim(ctx context.Context, key string, run func(context.Context) (*sim.Result, error)) (*sim.Result, bool, error) {
	simulated := false
	res, err := s.cache.GetOrCompute(ctx, key, func() (*sim.Result, error) {
		simulated = true
		r, err := run(ctx)
		if err == nil {
			s.metrics.simCycles.Add(r.Cycles)
		}
		return r, err
	})
	return res, !simulated, err
}

// simOpts builds the sim options every simulation entry point gets: the
// snapshot-retention cap (so unbounded-length jobs cannot grow a result's
// snapshot slice without limit) and, when configured, the runtime invariant
// sweep. Invariant checking never changes results, so cache keys are shared
// with unchecked servers.
func (s *Server) simOpts() []sim.Option {
	opts := []sim.Option{sim.WithSnapshotRetention(snapshotRetention)}
	if s.opts.CheckInvariants {
		opts = append(opts, sim.WithInvariantChecks())
	}
	return opts
}

// runSim dispatches the plan to the right simulation entry point. A non-nil
// tracer is attached to the engine (and, through g.Tracer(), picked up by the
// DASE policies); tracing is observation-only, so traced and untraced runs
// share cache keys.
func (s *Server) runSim(ctx context.Context, p plan, tr *telemetry.Tracer) (*sim.Result, error) {
	opts := s.simOpts()
	if tr != nil {
		opts = append(opts, sim.WithTracer(tr))
	}
	if p.mode == "alone" {
		return sim.RunAloneContext(ctx, s.opts.Cfg, p.profiles[0], p.cycles, p.seed, opts...)
	}
	switch p.policy {
	case "fair":
		return sched.RunContext(ctx, s.opts.Cfg, p.profiles, p.alloc, p.cycles, p.seed, sched.NewDASEFair(), opts...)
	case "perf":
		return sched.RunContext(ctx, s.opts.Cfg, p.profiles, p.alloc, p.cycles, p.seed, sched.NewDASEPerf(), opts...)
	default:
		return sim.RunSharedContext(ctx, s.opts.Cfg, p.profiles, p.alloc, p.cycles, p.seed, opts...)
	}
}
