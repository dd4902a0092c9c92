package workload

import (
	"context"
	"testing"

	"dasesim/internal/baseline"
	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/simcache"
)

// TestEvaluateSplitRuns verifies the two-system evaluation: with Epochs set
// the priority-epoch run comes with its own actual slowdowns, which an
// epoch estimator such as MISE is scored against.
func TestEvaluateSplitRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	opt := Options{Cfg: cfg, SharedCycles: 30_000, Seed: 1, Epochs: true}
	a, _ := kernels.ByAbbr("SB")
	b, _ := kernels.ByAbbr("SD")
	ev, err := Evaluate(context.Background(), opt, Job{Combo: Combo{Profiles: []kernels.Profile{a, b}}, Alloc: []int{8, 8}}, simcache.NewMemory(0))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Epoch == nil || ev.ActualEpoch == nil {
		t.Fatal("epoch run or its actual slowdowns missing")
	}
	if ev.Epoch == ev.Shared {
		t.Fatal("the epoch run is the plain run")
	}
	if _, errs := Score(baseline.NewMISE(), ev.Epoch.Snapshots, ev.ActualEpoch, 1); len(errs) != 2 {
		t.Fatalf("MISE scored %d apps on the epoch run, want 2", len(errs))
	}
	for i := range ev.Actual {
		if ev.Actual[i] < 1 || ev.ActualEpoch[i] < 1 {
			t.Fatalf("slowdowns below 1: %v / %v", ev.Actual[i], ev.ActualEpoch[i])
		}
	}
}

// TestEvaluateWithoutEpochEstimators: without Epochs there is no second run.
func TestEvaluateWithoutEpochEstimators(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	opt := Options{Cfg: cfg, SharedCycles: 20_000, Seed: 1}
	a, _ := kernels.ByAbbr("QR")
	b, _ := kernels.ByAbbr("BG")
	ev, err := Evaluate(context.Background(), opt, Job{Combo: Combo{Profiles: []kernels.Profile{a, b}}, Alloc: []int{8, 8}}, simcache.NewMemory(0))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Epoch != nil || ev.ActualEpoch != nil {
		t.Fatal("epoch run executed without Epochs")
	}
}
