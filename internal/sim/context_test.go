package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
)

// TestRunContextMatchesRun proves the chunked context-polling loop changes
// nothing about the simulation itself.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	ps := []kernels.Profile{mustKernel(t, "SB"), mustKernel(t, "SD")}
	plain, err := RunShared(cfg, ps, []int{8, 8}, 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunSharedContext(context.Background(), cfg, ps, []int{8, 8}, 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(viaCtx)
	if string(a) != string(b) {
		t.Fatal("RunSharedContext diverged from RunShared")
	}
}

func TestRunContextCancel(t *testing.T) {
	cfg := config.Default()
	g, err := New(cfg, []kernels.Profile{mustKernel(t, "SB")}, []int{cfg.NumSMs}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.RunContext(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if g.Cycle() > ctxCheckCycles {
		t.Fatalf("simulated %d cycles after cancellation", g.Cycle())
	}
}

func TestRunContextDeadline(t *testing.T) {
	cfg := config.Default()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunAloneContext(ctx, cfg, mustKernel(t, "SB"), 500_000_000, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	// The bound exists to catch a deadline being ignored outright (the full
	// budget would run for hours), not to time the poll: one ctxCheckCycles
	// chunk is milliseconds, but under the race detector on a loaded
	// two-core box the process can be descheduled for seconds.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}

// TestCancelDuringRun cancels from inside the run (an IntervalHook, the way a
// policy or a job timeout lands mid-simulation): the error must surface
// within one polling chunk, and the GPU must remain fully usable — finishing
// the budget is byte-identical to an uninterrupted RunShared.
func TestCancelDuringRun(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	ps := []kernels.Profile{mustKernel(t, "SB"), mustKernel(t, "SD")}
	const total = 40_000

	g, err := New(cfg, ps, []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.IntervalHook = func(*GPU, *IntervalSnapshot) { cancel() }
	if err := g.RunContext(ctx, total); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	if c := g.Cycle(); c < cfg.IntervalCycles || c >= cfg.IntervalCycles+ctxCheckCycles {
		t.Fatalf("cancelled at cycle %d, stopped at %d: want within one %d-cycle chunk", cfg.IntervalCycles, c, ctxCheckCycles)
	}

	g.IntervalHook = nil
	g.Run(total - g.Cycle())
	got, err := json.Marshal(g.FinishRun())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunShared(cfg, ps, []int{8, 8}, total, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantJSON) {
		t.Fatal("resumed cancelled run diverged from the uninterrupted run")
	}
}

// TestNestedRun drives a Run from inside an IntervalHook (policies re-enter
// the engine like this) and checks the outer run, a follow-up run and the
// summary all see a consistent cycle count.
func TestNestedRun(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	ps := []kernels.Profile{mustKernel(t, "SB"), mustKernel(t, "SD")}
	g, err := New(cfg, ps, []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hooks := 0
	g.IntervalHook = func(g *GPU, _ *IntervalSnapshot) {
		if hooks == 0 {
			g.IntervalHook = nil // the nested run must not re-enter the hook
			g.Run(5_000)
		}
		hooks++
	}
	g.Run(10_000)
	if g.Cycle() != 15_000 {
		t.Fatalf("cycle = %d after nested run, want 15000", g.Cycle())
	}
	g.Run(5_000)
	if res := g.FinishRun(); res.Cycles != 20_000 {
		t.Fatalf("FinishRun Cycles = %d, want 20000", res.Cycles)
	}
}

func mustKernel(t *testing.T, abbr string) kernels.Profile {
	t.Helper()
	p, ok := kernels.ByAbbr(abbr)
	if !ok {
		t.Fatalf("kernel %s missing", abbr)
	}
	return p
}
