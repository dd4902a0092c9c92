package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"path/filepath"
	"testing"
	"time"

	"dasesim/internal/journal"
	"dasesim/internal/sim"
)

// testCtx bounds test shutdowns.
func testCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 60*time.Second)
}

// crash simulates a process kill for journaling purposes: the journal is
// closed first (so no further lifecycle transitions are committed, exactly
// like losing the process), then the world is torn down. The in-memory
// server keeps mutating its own records while unwinding, but those
// mutations are lost — only what Append had already fsynced survives, which
// is the point.
func crash(t *testing.T, s *Server) {
	t.Helper()
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}
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

// TestCrashRecoveryByteIdentical is the kill-and-restart integration test:
// submit jobs, let one finish, drop the server with one job running and two
// queued, reopen the journal, and assert every job reaches a terminal state
// with results byte-identical to an uninterrupted run.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	jpath := filepath.Join(t.TempDir(), "dased.wal")
	base := Options{
		Workers:       1,
		QueueDepth:    16,
		JournalPath:   jpath,
		JobTimeout:    5 * time.Minute,
		DefaultCycles: testCycles,
		MaxCycles:     2_000_000_000,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	reqs := []JobRequest{
		{Kernels: []string{"SB", "SD"}, Cycles: testCycles, Seed: 3}, // finishes pre-crash
		{Kernels: []string{"SB"}, Cycles: 600_000},                   // running at the crash
		{Kernels: []string{"VA", "CT"}, Cycles: testCycles},          // queued at the crash
		{Kernels: []string{"QR", "BG"}, Cycles: testCycles, Slowdowns: true},
	}

	sA, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	sA.Start()
	j1, err := sA.submit(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := awaitTerminal(t, sA, j1.ID); v.Status != StatusDone {
		t.Fatalf("pre-crash job: %s (%s)", v.Status, v.Error)
	}
	j2, err := sA.submit(reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for statusOf(t, sA, j2.ID) != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	j3, err := sA.submit(reqs[2])
	if err != nil {
		t.Fatal(err)
	}
	j4, err := sA.submit(reqs[3])
	if err != nil {
		t.Fatal(err)
	}
	preCrashResult := resultJSON(t, func() JobView {
		sA.mu.Lock()
		defer sA.mu.Unlock()
		return sA.jobs[j1.ID].view()
	}())

	crash(t, sA)

	// Restart on the same journal.
	restarted := base
	restarted.Workers = 2
	sB, err := New(restarted)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := testCtx()
		defer cancel()
		_ = sB.Shutdown(ctx)
	})
	if got := sB.metrics.journalReplayed.Load(); got != 4 {
		t.Fatalf("journalReplayed = %d, want 4", got)
	}
	var buf bytes.Buffer
	sB.metrics.WritePrometheus(&buf)
	if n := metricValue(t, buf.String(), "dased_journal_replayed_total"); n != 4 {
		t.Fatalf("dased_journal_replayed_total = %v, want 4", n)
	}
	// The finished job is restored terminal, result intact, without re-running.
	restored := func() JobView {
		sB.mu.Lock()
		defer sB.mu.Unlock()
		j, ok := sB.jobs[j1.ID]
		if !ok {
			t.Fatal("finished job lost in recovery")
		}
		return j.view()
	}()
	if restored.Status != StatusDone {
		t.Fatalf("restored job status %s (%s)", restored.Status, restored.Error)
	}
	if !bytes.Equal(resultJSON(t, restored), preCrashResult) {
		t.Fatal("restored result differs from the pre-crash result")
	}

	sB.Start()
	views := map[string]JobView{}
	for _, id := range []string{j1.ID, j2.ID, j3.ID, j4.ID} {
		v := awaitTerminal(t, sB, id)
		if v.Status != StatusDone {
			t.Fatalf("recovered job %s: %s (%s)", id, v.Status, v.Error)
		}
		views[id] = v
	}

	// Uninterrupted reference run: same requests, fresh server, no journal.
	ref := base
	ref.JournalPath = ""
	ref.Workers = 2
	sC, err := New(ref)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := testCtx()
		defer cancel()
		_ = sC.Shutdown(ctx)
	})
	sC.Start()
	ids := []string{j1.ID, j2.ID, j3.ID, j4.ID}
	for i, req := range reqs {
		rj, err := sC.submit(req)
		if err != nil {
			t.Fatal(err)
		}
		rv := awaitTerminal(t, sC, rj.ID)
		if rv.Status != StatusDone {
			t.Fatalf("reference job %d: %s (%s)", i, rv.Status, rv.Error)
		}
		if !bytes.Equal(resultJSON(t, views[ids[i]]), resultJSON(t, rv)) {
			t.Fatalf("job %s result diverged from the uninterrupted run", ids[i])
		}
	}

	// The journal re-seeded the cache: resubmitting the pre-crash request is
	// a cache hit even though this process never simulated it.
	rehit, err := sB.submit(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := awaitTerminal(t, sB, rehit.ID); v.Status != StatusDone || !v.CacheHit {
		t.Fatalf("resubmission after recovery: status=%s cache_hit=%t", v.Status, v.CacheHit)
	}
}

// TestRestartRestoresTerminalStateOnly proves a clean shutdown followed by a
// reopen restores every job as a terminal, queryable record and re-enqueues
// nothing, and that startup compaction keeps the journal bounded.
func TestRestartRestoresTerminalStateOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	jpath := filepath.Join(t.TempDir(), "dased.wal")
	opts := Options{
		Workers:       2,
		JournalPath:   jpath,
		JobTimeout:    time.Minute,
		DefaultCycles: testCycles,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var ids []string
	for _, ks := range [][]string{{"SB", "SD"}, {"VA", "CT"}} {
		j, err := s.submit(JobRequest{Kernels: ks, Cycles: testCycles})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		if v := awaitTerminal(t, s, id); v.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
		}
	}
	ctx, cancel := testCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := testCtx()
		defer cancel()
		_ = s2.Shutdown(ctx)
	})
	if got := s2.metrics.journalReplayed.Load(); got != 2 {
		t.Fatalf("journalReplayed = %d, want 2", got)
	}
	if len(s2.queue) != 0 {
		t.Fatalf("%d jobs re-enqueued from terminal records", len(s2.queue))
	}
	for _, id := range ids {
		s2.mu.Lock()
		j, ok := s2.jobs[id]
		s2.mu.Unlock()
		if !ok || j.Status != StatusDone || j.Result == nil {
			t.Fatalf("job %s not restored terminal with result", id)
		}
	}
	// Startup compaction rewrote the journal to ≤ 2 records per job.
	if n := s2.journal.Len(); n > 2*len(ids) {
		t.Fatalf("journal holds %d records after compaction for %d jobs", n, len(ids))
	}
}

// TestJournalCompactionHonorsMaxJobs drives many short jobs through a tiny
// MaxJobs bound and checks the journal is compacted down to the retained
// records instead of growing without bound.
func TestJournalCompactionHonorsMaxJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	jpath := filepath.Join(t.TempDir(), "dased.wal")
	opts := Options{
		Workers:       1,
		MaxJobs:       2,
		JournalPath:   jpath,
		JobTimeout:    time.Minute,
		DefaultCycles: testCycles,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Identical submissions: the first simulates, the rest are cache hits,
	// so this loop is fast while still writing 3 records per job.
	for i := 0; i < 20; i++ {
		j, err := s.submit(JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles})
		if err != nil {
			t.Fatal(err)
		}
		if v := awaitTerminal(t, s, j.ID); v.Status != StatusDone {
			t.Fatalf("job %d: %s (%s)", i, v.Status, v.Error)
		}
	}
	if s.metrics.journalCompactions.Load() == 0 {
		t.Fatal("journal never compacted")
	}
	ctx, cancel := testCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Reopening evicts beyond MaxJobs and compacts the journal down to the
	// retained records (≤ 2 per terminal job).
	s2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := testCtx()
		defer cancel()
		_ = s2.Shutdown(ctx)
	})
	s2.mu.Lock()
	retained := len(s2.jobs)
	s2.mu.Unlock()
	if retained > opts.MaxJobs {
		t.Fatalf("recovery retained %d jobs, MaxJobs=%d", retained, opts.MaxJobs)
	}
	if n := s2.journal.Len(); n > 2*opts.MaxJobs {
		t.Fatalf("journal holds %d records after startup compaction, want <= %d", n, 2*opts.MaxJobs)
	}
}

// TestReplayFoldsJournalRecords feeds a fabricated journal through replay:
// a job's attempt count is the highest any started or finished record
// journaled, a canceled record makes a job terminal, a job with no terminal
// record is re-enqueued without its old start time, and records whose
// submission was compacted away (a torn prefix) are dropped while their IDs
// still advance the sequence. An unfinished job whose request no longer
// validates (a policy this server no longer has) replays as failed.
func TestReplayFoldsJournalRecords(t *testing.T) {
	mustJSON := func(v any) json.RawMessage {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	at := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	reqDone := JobRequest{Kernels: []string{"SB"}, Cycles: testCycles, Seed: 1}
	reqCanceled := JobRequest{Kernels: []string{"SD"}, Cycles: testCycles, Seed: 2}
	reqRequeued := JobRequest{Kernels: []string{"VA"}, Cycles: testCycles, Seed: 3}
	reqPerf := JobRequest{Kernels: []string{"VA", "CT"}, Cycles: testCycles, Seed: 5, Policy: "perf"}
	done := &JobResult{Sim: &sim.Result{Cycles: testCycles}}
	recs := []journal.Record{
		// Torn prefix: a finished record whose submission was compacted away.
		{Op: journal.OpFinished, JobID: "job-9", Time: at, Data: mustJSON(finishedData{Status: StatusDone})},
		{Op: journal.OpSubmitted, JobID: "job-1", Time: at, Data: mustJSON(submittedData{Request: reqDone})},
		{Op: journal.OpSubmitted, JobID: "job-2", Time: at, Data: mustJSON(submittedData{Request: reqCanceled})},
		{Op: journal.OpSubmitted, JobID: "job-3", Time: at, Data: mustJSON(submittedData{Request: reqRequeued})},
		{Op: journal.OpSubmitted, JobID: "job-4", Time: at, Data: mustJSON(submittedData{Request: reqPerf})},
		{Op: journal.OpStarted, JobID: "job-1", Time: at, Data: mustJSON(startedData{Attempt: 1})},
		{Op: journal.OpStarted, JobID: "job-1", Time: at, Data: mustJSON(startedData{Attempt: 3})},
		{Op: journal.OpFinished, JobID: "job-1", Time: at, Data: mustJSON(finishedData{
			Status: StatusDone, Attempts: 2, Result: done,
		})},
		{Op: journal.OpCanceled, JobID: "job-2", Time: at},
		{Op: journal.OpStarted, JobID: "job-3", Time: at, Data: mustJSON(startedData{Attempt: 2})},
		{Op: journal.OpStarted, JobID: "job-4", Time: at, Data: mustJSON(startedData{Attempt: 1})},
	}
	jpath := filepath.Join(t.TempDir(), "dased.wal")
	jnl, _, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Rewrite(recs); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Never started, so the re-enqueued job stays in the queue.
	s := newIdleServer(t, Options{JournalPath: jpath, DefaultCycles: testCycles})
	views := s.Views()
	if len(views) != 4 {
		t.Fatalf("replayed %d jobs, want 4: %+v", len(views), views)
	}
	byID := map[string]JobView{}
	for _, v := range views {
		byID[v.ID] = v
	}
	if v := byID["job-1"]; v.Status != StatusDone || v.Attempts != 3 || v.Result == nil || v.Request.Seed != 1 {
		t.Fatalf("done job replayed as %+v, want done with 3 attempts and its result", v)
	}
	if pl, err := s.buildPlan(reqDone); err != nil || !s.cache.Peek(pl.key) {
		t.Fatalf("done job's result did not re-seed the cache (plan err %v)", err)
	}
	if v := byID["job-2"]; v.Status != StatusCanceled || v.Error != "canceled" {
		t.Fatalf("canceled job replayed as %+v", v)
	}
	if v := byID["job-3"]; v.Status != StatusQueued || v.Attempts != 2 || v.StartedAt != nil {
		t.Fatalf("unfinished job replayed as %+v, want queued, 2 attempts, no start time", v)
	}
	if n := len(s.queue); n != 1 {
		t.Fatalf("%d jobs re-enqueued, want 1", n)
	}
	if v := byID["job-4"]; v.Status != StatusFailed || v.Error != `recovery: unknown policy "perf" (even | fair)` {
		t.Fatalf("unfinished perf job replayed as %+v, want failed with the policy error", v)
	}
	if _, ok := s.View("job-9"); ok {
		t.Fatal("a job without its submitted record was restored")
	}
	// The dropped job-9 still advanced the ID sequence.
	v, err := s.Submit(JobRequest{Kernels: []string{"SB"}, Cycles: testCycles, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "job-10" {
		t.Fatalf("first post-replay ID %q, want job-10", v.ID)
	}
}
