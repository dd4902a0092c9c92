package workload

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
)

// countingBaseline counts lookups to observe how much work a batch did.
type countingBaseline struct {
	inner Baseline
	calls atomic.Int64
}

func (c *countingBaseline) Get(p kernels.Profile) (*sim.Result, error) {
	return c.GetContext(context.Background(), p)
}

func (c *countingBaseline) GetContext(ctx context.Context, p kernels.Profile) (*sim.Result, error) {
	c.calls.Add(1)
	return c.inner.GetContext(ctx, p)
}

// TestEvaluateAllAbortsOnFirstError proves a failing job surfaces its own
// error (not a cancellation) and cancels the rest of the batch.
func TestEvaluateAllAbortsOnFirstError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := config.Default()
	opt := Options{Cfg: cfg, SharedCycles: 20_000, Seed: 1}
	cache := NewAloneCache(cfg, 20_000, 1)
	qr, _ := kernels.ByAbbr("QR")
	bg, _ := kernels.ByAbbr("BG")
	good := Combo{Profiles: []kernels.Profile{qr, bg}}
	jobs := []Job{
		// Allocation exceeding the SM count fails inside sim.New.
		{Combo: good, Alloc: []int{99, 99}},
		{Combo: good, Alloc: []int{8, 8}},
		{Combo: good, Alloc: []int{8, 8}},
	}
	_, err := EvaluateAll(opt, jobs, cache)
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
// job without running simulations.
func TestEvaluateAllExternalCancel(t *testing.T) {
	cfg := config.Default()
	opt := Options{Cfg: cfg, SharedCycles: 20_000, Seed: 1}
	counting := &countingBaseline{inner: NewAloneCache(cfg, 20_000, 1)}
	qr, _ := kernels.ByAbbr("QR")
	bg, _ := kernels.ByAbbr("BG")
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Combo: Combo{Profiles: []kernels.Profile{qr, bg}}, Alloc: []int{8, 8}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvaluateAllContext(ctx, opt, jobs, counting)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := counting.calls.Load(); n != 0 {
		t.Fatalf("cancelled batch still did %d baseline lookups", n)
	}
}

// TestAloneCacheSharedStore proves two AloneCache views over one store share
// simulated baselines.
func TestAloneCacheSharedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	cfg := config.Default()
	c1 := NewAloneCache(cfg, 20_000, 1)
	c2 := NewAloneCacheWith(c1.store, cfg, 20_000, 1)
	p, _ := kernels.ByAbbr("QR")
	r1, err := c1.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("views over one store did not share the result")
	}
	st := c1.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
