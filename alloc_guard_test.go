package dasesim

import (
	"testing"

	"dasesim/internal/sim"
)

// TestSteadyStateAllocations guards the cycle engine's pooled hot path
// against allocation regressions. After warm-up (request pool populated,
// rings grown to their working size, thread blocks resident), advancing the
// simulation must allocate almost nothing: the remaining allocations are
// block dispatch (warp streams for newly launched blocks) and the
// per-interval snapshot, both far off the per-cycle path.
//
// The seed engine spent ~13,500 allocations per 10,000 cycles on this
// workload; the pooled engine spends ~40. The budget of 500 leaves room for
// benign drift while still failing loudly if a hot path starts allocating
// per request or per cycle again.
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs full simulation windows")
	}
	cfg := DefaultConfig()
	sb, ok := KernelByAbbr("SB")
	if !ok {
		t.Fatal("kernel SB missing")
	}
	sd, ok := KernelByAbbr("SD")
	if !ok {
		t.Fatal("kernel SD missing")
	}
	// One subtest, under the name the tier-1 floor list records it by.
	t.Run("sequential", func(t *testing.T) {
		g, err := sim.New(cfg, []KernelProfile{sb, sd}, []int{8, 8}, 1)
		if err != nil {
			t.Fatal(err)
		}
		g.Run(20_000) // warm up: pool and queues reach steady state

		avg := testing.AllocsPerRun(5, func() { g.Run(10_000) })
		const budget = 500
		if avg > budget {
			t.Fatalf("steady-state GPU.Run(10k cycles) allocates %.0f objects, budget %d — a hot path regressed to per-request allocation", avg, budget)
		}
		t.Logf("steady-state allocations per 10k cycles: %.1f (budget %d)", avg, budget)
	})
}
