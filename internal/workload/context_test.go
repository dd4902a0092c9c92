package workload

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/simcache"
)

// TestEvaluateAllAbortsOnFirstError proves a failing job surfaces its own
// error (not a cancellation) and cancels the rest of the batch.
func TestEvaluateAllAbortsOnFirstError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := config.Default()
	opt := Options{Cfg: cfg, SharedCycles: 20_000, Seed: 1}
	qr, _ := kernels.ByAbbr("QR")
	bg, _ := kernels.ByAbbr("BG")
	good := Combo{Profiles: []kernels.Profile{qr, bg}}
	jobs := []Job{
		// Allocation exceeding the SM count fails inside sim.New.
		{Combo: good, Alloc: []int{99, 99}},
		{Combo: good, Alloc: []int{8, 8}},
		{Combo: good, Alloc: []int{8, 8}},
	}
	_, err := EvaluateAll(context.Background(), opt, jobs, simcache.NewMemory(0))
	if err == nil {
		t.Fatal("expected an error")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("batch reported an induced cancellation, not the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestEvaluateAllExternalCancel proves a pre-cancelled context skips every
// job without a store lookup, so without running simulations.
func TestEvaluateAllExternalCancel(t *testing.T) {
	cfg := config.Default()
	opt := Options{Cfg: cfg, SharedCycles: 20_000, Seed: 1}
	store := simcache.NewMemory(0)
	qr, _ := kernels.ByAbbr("QR")
	bg, _ := kernels.ByAbbr("BG")
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Combo: Combo{Profiles: []kernels.Profile{qr, bg}}, Alloc: []int{8, 8}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvaluateAll(ctx, opt, jobs, store)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st := store.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("cancelled batch still did store lookups: %+v", st)
	}
}
