package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"reflect"
	"testing"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
	"dasesim/internal/workload"
)

// testCtx bounds test shutdowns.
func testCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 60*time.Second)
}

// crash simulates a process kill: intake stops, running simulations are
// aborted before they can write a result, and the server is abandoned.
// Nothing of its memory carries over; only the files its cache directory
// already holds do.
func crash(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	s.beginDrainLocked()
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
}

// statusOf reads a job's status under the server mutex.
func statusOf(t *testing.T, s *Server, id string) Status {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	return j.Status
}

// awaitTerminal blocks until the job's done channel closes and returns its
// view.
func awaitTerminal(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	select {
	case <-j.done:
	case <-time.After(300 * time.Second): // generous: simulation is ~10x slower under -race
		t.Fatalf("job %s never reached a terminal state", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.view()
}

func resultJSON(t *testing.T, v JobView) []byte {
	t.Helper()
	if v.Result == nil {
		t.Fatalf("job %s has no result (status=%s error=%q)", v.ID, v.Status, v.Error)
	}
	data, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashRecoveryByteIdentical is the kill, restart, resubmit test: two
// jobs finish (one with slowdowns, so alone baselines are stored too), the
// server is killed with one job running and one queued, and a new server on
// the same cache directory gets all four requests again. The two finished
// ones come back from disk, byte-identical to their pre-crash results,
// without simulating a cycle; the other two simulate; all four match an
// uninterrupted run without a cache directory.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	base := Options{
		Workers:       1,
		QueueDepth:    16,
		CacheDir:      t.TempDir(),
		JobTimeout:    5 * time.Minute,
		DefaultCycles: testCycles,
		MaxCycles:     200_000_000,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	reqs := []JobRequest{
		{Kernels: []string{"SB", "SD"}, Cycles: testCycles, Seed: 3},         // finishes pre-crash
		{Kernels: []string{"QR", "BG"}, Cycles: testCycles, Slowdowns: true}, // finishes pre-crash
		{Kernels: []string{"SB"}, Cycles: 600_000},                           // running at the crash
		{Kernels: []string{"VA", "CT"}, Cycles: testCycles},                  // queued at the crash
	}

	sA, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	sA.Start()
	var preCrash [2][]byte
	for i := range preCrash {
		v := submitAndWait(t, sA, reqs[i])
		if v.Status != StatusDone {
			t.Fatalf("pre-crash job %d: %s (%s)", i, v.Status, v.Error)
		}
		preCrash[i] = resultJSON(t, v)
	}
	running, err := sA.submit(reqs[2])
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for statusOf(t, sA, running.ID) != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := sA.submit(reqs[3]); err != nil {
		t.Fatal(err)
	}
	crash(t, sA)

	// Restart on the same directory: the client resubmits everything.
	restarted := base
	restarted.Workers = 2
	sB := newIdleServer(t, restarted)
	sB.Start()
	recovered := make([]JobView, len(reqs))
	for i, req := range reqs {
		recovered[i] = submitAndWait(t, sB, req)
		if recovered[i].Status != StatusDone {
			t.Fatalf("resubmitted job %d: %s (%s)", i, recovered[i].Status, recovered[i].Error)
		}
		if i == 1 {
			if n := sB.cache.Stats().Cycles; n != 0 {
				t.Fatalf("finished requests simulated %d cycles after the restart, want 0", n)
			}
		}
	}
	for i := range preCrash {
		if !recovered[i].CacheHit {
			t.Fatalf("finished job %d was not a disk hit after the restart", i)
		}
		if !bytes.Equal(resultJSON(t, recovered[i]), preCrash[i]) {
			t.Fatalf("job %d's result differs from its pre-crash bytes", i)
		}
	}
	if recovered[2].CacheHit || recovered[3].CacheHit {
		t.Fatal("a job that never finished before the crash was served from the cache")
	}

	// Uninterrupted reference run: same requests, fresh server, memory only.
	ref := base
	ref.CacheDir = ""
	ref.Workers = 2
	sC := newIdleServer(t, ref)
	sC.Start()
	for i, req := range reqs {
		rv := submitAndWait(t, sC, req)
		if rv.Status != StatusDone {
			t.Fatalf("reference job %d: %s (%s)", i, rv.Status, rv.Error)
		}
		if !bytes.Equal(resultJSON(t, recovered[i]), resultJSON(t, rv)) {
			t.Fatalf("job %d's result diverged from the uninterrupted run", i)
		}
	}
}

// TestJobIDsSurviveRestart: job IDs carry a digest of the request, so when
// the per-process counter starts again at 1 after a restart, an ID handed
// out before it names the same request or nothing. The requests share one
// main simulation and differ only in slowdowns or timeout, which the digest
// still tells apart; a counter-only ID would name different requests.
func TestJobIDsSurviveRestart(t *testing.T) {
	reqs := []JobRequest{
		{Kernels: []string{"SB", "SD"}, Cycles: testCycles},
		{Kernels: []string{"SB", "SD"}, Cycles: testCycles, Slowdowns: true},
		{Kernels: []string{"SB", "SD"}, Cycles: testCycles, TimeoutMS: 500},
	}
	submitAll := func(s *Server, order ...int) map[string]JobRequest {
		named := map[string]JobRequest{}
		for _, i := range order {
			v, err := s.Submit(reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			named[v.ID] = reqs[i]
		}
		return named
	}
	// Before: job-<d0>-1, job-<d1>-2, job-<d2>-3. After: job-<d0>-1 and
	// job-<d2>-3 again, each for its old request, while counter 2 now goes
	// to request 2 instead of request 1 and so gets a different ID.
	before := submitAll(newIdleServer(t, Options{}), 0, 1, 2)
	after := submitAll(newIdleServer(t, Options{}), 0, 2, 2, 1)

	reused := 0
	for id, req := range before {
		got, ok := after[id]
		if !ok {
			continue
		}
		reused++
		a, _ := json.Marshal(req)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			t.Fatalf("ID %s named %s before the restart and %s after it", id, a, b)
		}
	}
	if reused != 2 {
		t.Fatalf("%d IDs handed out on both sides, want 2", reused)
	}
	if len(before) != 3 || len(after) != 4 {
		t.Fatalf("distinct IDs: %d before, %d after; want 3 and 4", len(before), len(after))
	}
}

// TestAloneBaselineSharedWithWorkload: the static run and the alone
// baselines workload.Evaluate stored on a directory are disk hits for a
// slowdown job of a server on the same directory with the same cfg, cycles
// and seed, because both key them alike ("shared/even" and AloneKey). The
// job simulates nothing and returns what Evaluate measured.
func TestAloneBaselineSharedWithWorkload(t *testing.T) {
	dir := t.TempDir()
	cfg := config.Default()
	store, err := simcache.NewDir(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := kernels.ByAbbr("SB")
	sd, _ := kernels.ByAbbr("SD")
	job := workload.Job{Combo: workload.Combo{Profiles: []kernels.Profile{sb, sd}}, Alloc: sim.EvenAllocation(cfg.NumSMs, 2)}
	ev, err := workload.Evaluate(context.Background(), workload.Options{Cfg: cfg, SharedCycles: testCycles, Seed: 1}, job, store)
	if err != nil {
		t.Fatal(err)
	}

	s := newIdleServer(t, Options{Cfg: cfg, CacheDir: dir, Workers: 1})
	s.Start()
	v := submitAndWait(t, s, JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles, Seed: 1, Slowdowns: true})
	if v.Status != StatusDone {
		t.Fatalf("slowdown job: %s (%s)", v.Status, v.Error)
	}
	if st := s.cache.Stats(); st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("cache stats = %+v, want the shared run and the two baselines from disk", st)
	}
	if !reflect.DeepEqual(v.Result.Sim, ev.Shared) || !reflect.DeepEqual(v.Result.AloneIPC, ev.AloneIPC) || !reflect.DeepEqual(v.Result.Slowdowns, ev.Actual) {
		t.Fatalf("job result differs from the stored evaluation:\n got %+v\nwant shared %+v, alone IPC %v, slowdowns %v", v.Result, ev.Shared, ev.AloneIPC, ev.Actual)
	}
}
