package workload

import (
	"context"
	"testing"

	"dasesim/internal/baseline"
	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/simcache"
)

// TestEvaluateSplitRuns verifies the two-system evaluation: passive
// estimators read the plain run, epoch estimators read the priority-epoch
// run and are judged against its own actual slowdowns.
func TestEvaluateSplitRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	opt := Options{
		Cfg:             cfg,
		SharedCycles:    30_000,
		Seed:            1,
		WarmupIntervals: 1,
		Estimators:      []core.Estimator{core.New(core.Options{})},
		EpochEstimators: []core.Estimator{baseline.NewMISE()},
	}
	a, _ := kernels.ByAbbr("SB")
	b, _ := kernels.ByAbbr("SD")
	ev, err := Evaluate(context.Background(), opt, Job{Combo: Combo{Profiles: []kernels.Profile{a, b}}, Alloc: []int{8, 8}}, simcache.NewMemory(0))
	if err != nil {
		t.Fatal(err)
	}
	if ev.ActualEpoch == nil {
		t.Fatal("epoch-run actual slowdowns missing")
	}
	if _, ok := ev.Errors["DASE"]; !ok {
		t.Fatal("DASE errors missing")
	}
	if _, ok := ev.Errors["MISE"]; !ok {
		t.Fatal("MISE errors missing")
	}
	for i := range ev.Actual {
		if ev.Actual[i] < 1 || ev.ActualEpoch[i] < 1 {
			t.Fatalf("slowdowns below 1: %v / %v", ev.Actual[i], ev.ActualEpoch[i])
		}
	}
}

// TestEvaluateWithoutEpochEstimators keeps the second run off.
func TestEvaluateWithoutEpochEstimators(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	opt := Options{
		Cfg:          cfg,
		SharedCycles: 20_000,
		Seed:         1,
		Estimators:   []core.Estimator{core.New(core.Options{})},
	}
	a, _ := kernels.ByAbbr("QR")
	b, _ := kernels.ByAbbr("BG")
	ev, err := Evaluate(context.Background(), opt, Job{Combo: Combo{Profiles: []kernels.Profile{a, b}}, Alloc: []int{8, 8}}, simcache.NewMemory(0))
	if err != nil {
		t.Fatal(err)
	}
	if ev.ActualEpoch != nil {
		t.Fatal("epoch run executed without epoch estimators")
	}
}
