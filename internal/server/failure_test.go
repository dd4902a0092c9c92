package server

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
)

// submitAndWait submits req and blocks until the job is terminal.
func submitAndWait(t *testing.T, s *Server, req JobRequest) JobView {
	t.Helper()
	j, err := s.submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return awaitTerminal(t, s, j.ID)
}

// TestPanicFailsJobOnce: a simulation that panics fails its job after one
// attempt, with the panic as the error, and the next job on the same worker
// runs normally.
func TestPanicFailsJobOnce(t *testing.T) {
	s := newIdleServer(t, Options{Workers: 1})
	real := s.simulate
	calls := 0
	s.simulate = func(ctx context.Context, p plan, tr *telemetry.Tracer) (*sim.Result, error) {
		calls++
		if calls == 1 {
			panic("simulation blew up")
		}
		return real(ctx, p, tr)
	}
	s.Start()
	v := submitAndWait(t, s, JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles})
	if v.Status != StatusFailed || v.Attempts != 1 || !strings.Contains(v.Error, "panic: simulation blew up") {
		t.Fatalf("status=%s attempts=%d error=%q, want failed once with the panic", v.Status, v.Attempts, v.Error)
	}
	if v := submitAndWait(t, s, JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles}); v.Status != StatusDone || v.Attempts != 1 {
		t.Fatalf("job after the panic: status=%s attempts=%d error=%q", v.Status, v.Attempts, v.Error)
	}
	if calls != 2 {
		t.Fatalf("simulate ran %d times, want 2: a panicked job is not retried", calls)
	}
}

// TestDeadlineOverrunTimesOut: a job whose work overruns its deadline fails
// with a timeout instead of hanging its worker, wherever the overrun
// happens: in the worker's simulation call (server.worker), in the real
// simulation's step loop (sim.step), or while waiting in the result cache on
// another job's in-flight simulation of the same key (simcache.get).
func TestDeadlineOverrunTimesOut(t *testing.T) {
	cases := []struct {
		name   string
		cycles uint64
		// overrun starts s so that a job for req with a 100ms deadline
		// overruns it, and returns a function to call once that job is
		// terminal.
		overrun func(t *testing.T, s *Server, req JobRequest) (release func())
	}{
		{"server.worker", testCycles, func(t *testing.T, s *Server, _ JobRequest) func() {
			s.simulate = func(ctx context.Context, _ plan, _ *telemetry.Tracer) (*sim.Result, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			s.Start()
			return func() {}
		}},
		// 2×10⁸ cycles run for minutes, so the deadline lands in the step loop.
		{"sim.step", 200_000_000, func(t *testing.T, s *Server, _ JobRequest) func() {
			s.Start()
			return func() {}
		}},
		{"simcache.get", testCycles, func(t *testing.T, s *Server, req JobRequest) func() {
			real := s.simulate
			unblock := make(chan struct{})
			var calls atomic.Int32
			s.simulate = func(ctx context.Context, p plan, tr *telemetry.Tracer) (*sim.Result, error) {
				calls.Add(1)
				select {
				case <-unblock:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return real(ctx, p, tr)
			}
			s.Start()
			// The first job holds the key's flight; the timed job waits on it.
			holder, err := s.submit(req)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for calls.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("holder job never started simulating")
				}
				time.Sleep(2 * time.Millisecond)
			}
			return func() {
				if n := calls.Load(); n != 1 {
					t.Errorf("simulate ran %d times, want 1: the timed job must wait on the flight", n)
				}
				close(unblock)
				if v := awaitTerminal(t, s, holder.ID); v.Status != StatusDone {
					t.Errorf("holder job: status=%s error=%q, want done", v.Status, v.Error)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newIdleServer(t, Options{Workers: 2, MaxCycles: 200_000_000})
			req := JobRequest{Kernels: []string{"SB", "SD"}, Cycles: tc.cycles}
			release := tc.overrun(t, s, req)
			timed := req
			timed.TimeoutMS = 100
			start := time.Now()
			v := submitAndWait(t, s, timed)
			if v.Status != StatusFailed || !strings.Contains(v.Error, "timeout") {
				t.Fatalf("status=%s error=%q, want timeout", v.Status, v.Error)
			}
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Fatalf("deadline overrun took %v — effectively hung", elapsed)
			}
			release()
		})
	}
}

// TestLoadSheddingPrefersCached proves admission control over the high-water
// mark: cached submissions are admitted, uncached ones are shed with the
// counter bumped.
func TestLoadSheddingPrefersCached(t *testing.T) {
	s := newIdleServer(t, Options{
		Workers:       1,
		QueueDepth:    4, // high-water mark defaults to 3
		MaxCycles:     200_000_000,
		ShedHighWater: 3,
	})
	s.Start()
	// Warm the cache with a fast job.
	cachedReq := JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles}
	if v := submitAndWait(t, s, cachedReq); v.Status != StatusDone {
		t.Fatalf("warmup: %s (%s)", v.Status, v.Error)
	}
	// Occupy the worker, then fill the queue to the high-water mark.
	long, err := s.submit(JobRequest{Kernels: []string{"SB"}, Cycles: 200_000_000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for statusOf(t, s, long.ID) != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.submit(JobRequest{Kernels: []string{"VA"}, Cycles: testCycles, Seed: uint64(i + 1)}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// Over the mark: uncached is shed, cached is admitted.
	if _, err := s.submit(JobRequest{Kernels: []string{"CT"}, Cycles: testCycles}); err != ErrShed {
		t.Fatalf("uncached over high water: %v, want ErrShed", err)
	}
	if got := s.metrics.jobsShed.Load(); got != 1 {
		t.Fatalf("jobsShed=%d, want 1", got)
	}
	if _, err := s.submit(cachedReq); err != nil {
		t.Fatalf("cached over high water rejected: %v", err)
	}
	// Unblock the worker so shutdown stays fast.
	if found, canceled := s.cancelJob(long.ID); !found || !canceled {
		t.Fatal("could not cancel the long job")
	}
}
