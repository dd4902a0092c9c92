package server

import (
	"net/http"
	"testing"
	"time"
)

// TestLongPollClampsOversizedWait proves an absurd wait_ms is clamped to
// LongPollMax instead of pinning the handler for the requested hour.
func TestLongPollClampsOversizedWait(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := newTestServer(t, Options{
		Workers:     1,
		MaxCycles:   200_000_000,
		LongPollMax: 100 * time.Millisecond,
	})
	long, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB"}, Cycles: 200_000_000})
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, long.ID, 0).Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	v := getJob(t, ts, long.ID, 3_600_000) // asks for an hour
	elapsed := time.Since(start)
	if v.Status != StatusRunning {
		t.Fatalf("status=%s, want still running", v.Status)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("oversized wait not clamped: took %v", elapsed)
	}
	cancelJob(t, ts, long.ID, http.StatusOK)
	if v := waitDone(t, ts, long.ID); v.Status != StatusCanceled {
		t.Fatalf("cleanup cancel: %s", v.Status)
	}
}

// TestLongPollTerminalAtEntry proves a wait on an already-terminal job
// returns immediately — the done channel is closed before the select.
func TestLongPollTerminalAtEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := newTestServer(t, Options{})
	v, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles})
	v = waitDone(t, ts, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("setup job: %s (%s)", v.Status, v.Error)
	}

	start := time.Now()
	got := getJob(t, ts, v.ID, 30_000)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("terminal-at-entry wait blocked for %v", elapsed)
	}
	if got.Status != StatusDone || got.Result == nil {
		t.Fatalf("status=%s result=%v", got.Status, got.Result)
	}
}

// TestLongPollCancellationMidWait proves a cancellation arriving while a
// client is parked in wait_ms wakes the poll promptly with the terminal
// state.
func TestLongPollCancellationMidWait(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := newTestServer(t, Options{Workers: 1, MaxCycles: 200_000_000})
	long, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB"}, Cycles: 200_000_000})
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, long.ID, 0).Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	type polled struct {
		view    JobView
		elapsed time.Duration
	}
	ch := make(chan polled, 1)
	start := time.Now()
	go func() {
		v := getJob(t, ts, long.ID, 120_000)
		ch <- polled{v, time.Since(start)}
	}()
	// Let the poller park, then cancel out from under it.
	time.Sleep(50 * time.Millisecond)
	cancelJob(t, ts, long.ID, http.StatusOK)

	select {
	case p := <-ch:
		if p.view.Status != StatusCanceled {
			t.Fatalf("long-poll returned %s, want canceled", p.view.Status)
		}
		if p.elapsed > 60*time.Second {
			t.Fatalf("long-poll held for %v after cancellation", p.elapsed)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("long-poll never woke after cancellation")
	}
}
