package sched

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sim"
)

func TestSearchFairPair(t *testing.T) {
	// Two apps, one slowed 3x and one 1.2x on an 8+8 split: the search
	// must give the slower app more SMs.
	best, unf := new(PartitionSearch).Fair([]float64{3, 1.2}, []int{8, 8}, 16, 1)
	if best == nil {
		t.Fatal("no partition found")
	}
	if best[0] <= best[1] {
		t.Fatalf("expected more SMs for the slower app, got %v", best)
	}
	if best[0]+best[1] != 16 {
		t.Fatalf("partition %v does not use all SMs", best)
	}
	if unf <= 0 {
		t.Fatalf("nonsensical predicted unfairness %v", unf)
	}
}

func TestSearchBestPartitionFour(t *testing.T) {
	slow := []float64{4, 4, 1.5, 1.5}
	best, _ := new(PartitionSearch).Fair(slow, []int{4, 4, 4, 4}, 16, 1)
	if best == nil {
		t.Fatal("no partition found")
	}
	sum := 0
	for _, v := range best {
		sum += v
	}
	if sum != 16 {
		t.Fatalf("partition %v does not use all SMs", best)
	}
	if best[0] <= best[2] || best[1] <= best[3] {
		t.Fatalf("slow apps should get more SMs: %v", best)
	}
}

func TestReciprocalAt(t *testing.T) {
	// Estimated reciprocal 0.5 at 8 of 16 SMs: Eq. 29 example from the
	// paper — at 12 SMs the reciprocal is 0.75.
	if got := ReciprocalAt(0.5, 8, 12, 16); got != 0.75 {
		t.Fatalf("Eq.29 example: got %v, want 0.75", got)
	}
	// Eq. 30: at 4 SMs the reciprocal halves to 0.25.
	if got := ReciprocalAt(0.5, 8, 4, 16); got != 0.25 {
		t.Fatalf("Eq.30 example: got %v, want 0.25", got)
	}
	if got := ReciprocalAt(0.5, 8, 16, 16); got != 1 {
		t.Fatalf("all SMs must give reciprocal 1, got %v", got)
	}
	if got := ReciprocalAt(0.5, 8, 8, 16); got != 0.5 {
		t.Fatalf("same SMs must return the estimate, got %v", got)
	}
}

func TestLeftoverAllocation(t *testing.T) {
	cfg := config.Default()
	sn, _ := kernels.ByAbbr("SN") // 24 blocks, 6 resident per SM -> 4 SMs
	sb, _ := kernels.ByAbbr("SB")
	alloc := LeftoverAllocation(cfg, []kernels.Profile{sn, sb})
	if alloc[0] != 4 {
		t.Fatalf("SN needs 4 SMs under LEFTOVER, got %d", alloc[0])
	}
	if alloc[1] != 12 {
		t.Fatalf("SB should get the 12 leftover SMs, got %d", alloc[1])
	}
	// A big kernel first starves the second one entirely.
	alloc = LeftoverAllocation(cfg, []kernels.Profile{sb, sn})
	if alloc[0] != 16 || alloc[1] != 0 {
		t.Fatalf("expected 16+0, got %v", alloc)
	}
}

// TestRunContextMatchesRun proves Run's chunked context-polling loop
// changes nothing about the simulation itself: without a policy it is
// byte-identical to a plain GPU.Run of the same budget.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	sb, _ := kernels.ByAbbr("SB")
	sd, _ := kernels.ByAbbr("SD")
	ps := []kernels.Profile{sb, sd}
	g, err := sim.New(cfg, ps, []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(30_000)
	viaCtx, err := Run(context.Background(), cfg, ps, []int{8, 8}, 30_000, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(g.FinishRun())
	b, _ := json.Marshal(viaCtx)
	if string(a) != string(b) {
		t.Fatal("Run diverged from GPU.Run")
	}
}

// TestRunContextDeadline: an alone run (one app on every SM) far longer
// than its deadline returns context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	cfg := config.Default()
	sb, _ := kernels.ByAbbr("SB")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, cfg, []kernels.Profile{sb}, []int{cfg.NumSMs}, 500_000_000, 1, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	// The bound exists to catch a deadline being ignored outright (the full
	// budget would run for hours), not to time the poll: one polling chunk
	// is milliseconds, but under the race detector on a loaded two-core box
	// the process can be descheduled for seconds.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}

// TestDASEFairImprovesFairness runs one clearly unfair pair under both
// policies and requires DASE-Fair to reduce measured unfairness.
func TestDASEFairImprovesFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("slow policy run")
	}
	cfg := config.Default()
	va, _ := kernels.ByAbbr("VA")
	ct, _ := kernels.ByAbbr("CT")
	ps := []kernels.Profile{va, ct}
	cycles := uint64(400_000)

	aloneIPC := make([]float64, 2)
	for i, prof := range ps {
		res, err := sim.RunAlone(cfg, prof, cycles, 1)
		if err != nil {
			t.Fatal(err)
		}
		aloneIPC[i] = res.Apps[0].IPC
	}

	even, err := Run(context.Background(), cfg, ps, []int{8, 8}, cycles, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol := NewDASEFair()
	fair, err := Run(context.Background(), cfg, ps, []int{8, 8}, cycles, 1, pol)
	if err != nil {
		t.Fatal(err)
	}

	unfEven := metrics.Unfairness([]float64{
		metrics.Slowdown(aloneIPC[0], even.Apps[0].IPC),
		metrics.Slowdown(aloneIPC[1], even.Apps[1].IPC),
	})
	unfFair := metrics.Unfairness([]float64{
		metrics.Slowdown(aloneIPC[0], fair.Apps[0].IPC),
		metrics.Slowdown(aloneIPC[1], fair.Apps[1].IPC),
	})
	t.Logf("unfairness even=%.3f fair=%.3f reallocations=%d finalAlloc=%v",
		unfEven, unfFair, pol.Reallocations, fair.Snapshots[len(fair.Snapshots)-1].Apps)
	if pol.Reallocations == 0 {
		t.Error("DASE-Fair never reallocated on a clearly unfair workload")
	}
	if unfFair >= unfEven {
		t.Errorf("DASE-Fair did not improve fairness: even=%.3f fair=%.3f", unfEven, unfFair)
	}
}

// TestDrainingReallocation checks the SM-draining mechanics directly.
func TestDrainingReallocation(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	va, _ := kernels.ByAbbr("VA")
	ct, _ := kernels.ByAbbr("CT")
	g, err := sim.New(cfg, []kernels.Profile{va, ct}, []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	if err := g.SetAllocation([]int{12, 4}); err != nil {
		t.Fatal(err)
	}
	g.Run(100_000)
	alloc := g.Allocation()
	if alloc[0] != 12 || alloc[1] != 4 {
		t.Fatalf("allocation not applied: %v", alloc)
	}
	res := g.FinishRun()
	for i, a := range res.Apps {
		if a.Instructions == 0 {
			t.Fatalf("app %d stopped retiring instructions after reallocation", i)
		}
	}
}
