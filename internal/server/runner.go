package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dasesim/internal/core"
	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
	"dasesim/internal/workload"
)

// worker drains the job queue until it is closed by Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one queued job, converting panics and context errors into
// terminal job states instead of process death. A job runs at most once:
// simulations are deterministic, so a job that panicked or timed out would
// do so again.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.Status != StatusQueued {
		// Canceled while waiting in the queue; nothing to run.
		s.mu.Unlock()
		return
	}
	job.Status = StatusRunning
	job.Attempts = 1
	job.StartedAt = time.Now()
	ctx, cancel := context.WithTimeout(s.baseCtx, job.plan.timeout)
	job.cancel = cancel
	queueWait := job.StartedAt.Sub(job.SubmittedAt)
	s.mu.Unlock()

	s.metrics.queueWait.Observe(queueWait.Seconds())
	job.tracer.Emit(telemetry.Event{
		Kind: telemetry.KindJobStarted, Wall: job.StartedAt.UnixNano(),
		App: -1, SM: -1, Job: job.ID, Attempt: 1,
	})

	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			s.finishJob(job, nil, false, fmt.Errorf("panic: %v", r))
		}
	}()

	res, cacheHit, err := s.execute(ctx, job.plan, job.tracer)
	s.finishJob(job, res, cacheHit, err)
}

// finishJob moves the job to its terminal state.
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
	default:
		s.finalizeLocked(job, StatusFailed, err.Error(), nil, false)
	}
	wall := job.FinishedAt.Sub(job.StartedAt)
	status, hit := job.Status, job.CacheHit
	s.mu.Unlock()
	s.metrics.observeJob(wall)
	s.writeTraceFile(job)
	s.opts.Logger.Info("job finished",
		"job", job.ID, "status", status, "cache_hit", hit,
		"wall", wall.Round(time.Millisecond))
}

// finalizeLocked commits a terminal transition: job fields, metrics and the
// done channel. The caller holds s.mu.
func (s *Server) finalizeLocked(job *Job, status Status, errMsg string, res *JobResult, cacheHit bool) {
	job.Status = status
	job.Error = errMsg
	job.Result = res
	job.CacheHit = cacheHit
	job.FinishedAt = time.Now()
	close(job.done)
	job.tracer.Emit(telemetry.Event{
		Kind: telemetry.KindJobDone, Wall: job.FinishedAt.UnixNano(),
		App: -1, SM: -1, Job: job.ID, Note: string(status),
		Attempt: int32(job.Attempts), CacheHit: cacheHit,
	})
	switch status {
	case StatusDone:
		s.metrics.jobsCompleted.Add(1)
	case StatusCanceled:
		s.metrics.jobsCanceled.Add(1)
	default:
		s.metrics.jobsFailed.Add(1)
	}
}

// writeTraceFile dumps a finished job's trace as NDJSON to
// <TraceDir>/<id>.trace.ndjson. The trace is written to a temporary file in
// TraceDir and renamed into place, so a reader of the directory sees the
// whole file or none. Called outside the server mutex; file I/O must not
// block job state transitions.
func (s *Server) writeTraceFile(job *Job) {
	if s.opts.TraceDir == "" || job.tracer == nil {
		return
	}
	path := filepath.Join(s.opts.TraceDir, job.ID+".trace.ndjson")
	f, err := os.CreateTemp(s.opts.TraceDir, job.ID+".tmp*")
	if err != nil {
		s.opts.Logger.Error("trace file create failed", "job", job.ID, "err", err)
		return
	}
	err = telemetry.WriteNDJSON(f, job.tracer.Events())
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp makes 0600; traces are for other readers too
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: the write already failed
		s.opts.Logger.Error("trace file write failed", "job", job.ID, "path", path, "err", err)
	}
}

// execute runs the plan's simulation through the content-addressed cache and
// optionally augments it with slowdown metrics against the alone baselines
// workload.AloneIPC reads from the same cache. The returned cacheHit refers
// to the main simulation. tr, when non-nil, receives the simulation's trace
// events (cache hits skip the simulation, so hit jobs carry lifecycle events
// only) and, for slowdown jobs, the measured ground truth.
func (s *Server) execute(ctx context.Context, p plan, tr *telemetry.Tracer) (*JobResult, bool, error) {
	simulated := false
	res, err := s.cache.GetOrCompute(ctx, p.key, func() (*sim.Result, error) {
		simulated = true
		return s.simulate(ctx, p, tr)
	})
	if err != nil {
		return nil, false, err
	}
	out := &JobResult{Sim: res}
	if p.slowdown {
		// Alone baselines are addressed with workload.AloneKey, so they are
		// simulated at most once across slowdown computations, explicit
		// alone-mode jobs and cmd/experiments runs on a shared -cache-dir.
		out.AloneIPC, err = workload.AloneIPC(ctx, s.cache, s.opts.Cfg, p.profiles, p.cycles, p.seed, s.simOpts()...)
		if err != nil {
			return nil, false, err
		}
		out.Slowdowns = workload.Slowdowns(out.AloneIPC, res)
		out.Unfairness = metrics.Unfairness(out.Slowdowns)
		out.HarmonicSpeedup = metrics.HarmonicSpeedup(out.Slowdowns)
		s.observeEstimation(p, res, out.Slowdowns, tr)
	}
	return out, !simulated, nil
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
	est := core.New(core.Options{})
	emitDASE := tr != nil && p.policy == "even"
	for si := range res.Snapshots {
		snap := &res.Snapshots[si]
		det := est.EstimateDetailed(snap)
		for i := range det {
			if i < len(actual) && actual[i] > 0 {
				s.metrics.estError.Observe(metrics.Error(det[i].Slowdown, actual[i]))
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

// simOpts builds the sim options every simulation entry point gets: the
// runtime invariant sweep, when configured. Invariant checking never changes
// results, so cache keys are shared with unchecked servers.
func (s *Server) simOpts() []sim.Option {
	if s.opts.CheckInvariants {
		return []sim.Option{sim.WithInvariantChecks()}
	}
	return nil
}

// runSim runs the plan's main simulation: an alone-mode plan is the
// one-app run on every SM (its alloc), and only a "fair" plan has a policy.
// A non-nil tracer is attached to the engine (and, through g.Tracer(),
// picked up by DASE-Fair); tracing is observation-only, so traced and
// untraced runs share cache keys.
func (s *Server) runSim(ctx context.Context, p plan, tr *telemetry.Tracer) (*sim.Result, error) {
	opts := s.simOpts()
	if tr != nil {
		opts = append(opts, sim.WithTracer(tr))
	}
	var pol sched.Policy
	if p.policy == "fair" {
		pol = sched.NewDASEFair()
	}
	return sched.Run(ctx, s.opts.Cfg, p.profiles, p.alloc, p.cycles, p.seed, pol, opts...)
}
