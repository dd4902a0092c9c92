package sched

import (
	"context"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
)

// tracedPolicyRun drives a short traced run (small interval so the policy
// fires several times even in -short mode) and returns the event counts.
func tracedPolicyRun(t *testing.T, pol Policy) map[telemetry.Kind]int {
	t.Helper()
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	va, _ := kernels.ByAbbr("VA")
	ct, _ := kernels.ByAbbr("CT")
	tr := telemetry.New(0)
	_, err := Run(context.Background(), cfg, []kernels.Profile{va, ct}, []int{8, 8}, 60_000, 5, pol,
		sim.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[telemetry.Kind]int{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	return kinds
}

// TestDASEFairTracing checks that a traced DASE-Fair run emits per-app
// estimator events and one scheduling decision per post-warmup interval.
func TestDASEFairTracing(t *testing.T) {
	kinds := tracedPolicyRun(t, NewDASEFair())
	// 60k cycles / 10k interval = 6 intervals, the first is warmup.
	if got := kinds[telemetry.KindSchedDecision]; got != 5 {
		t.Errorf("%d sched.decision events, want 5", got)
	}
	if got := kinds[telemetry.KindDASEApp]; got != 10 {
		t.Errorf("%d dase.app events, want 10 (2 apps x 5 intervals)", got)
	}
	if kinds[telemetry.KindInterval] == 0 {
		t.Error("no interval events from the engine")
	}
}

// TestUntracedPolicyEmitsNothing pins the zero-overhead contract at the
// policy layer: without a tracer the decision path must not panic and the
// policy must behave identically (covered byte-for-byte by the root
// package's determinism goldens).
func TestUntracedPolicyEmitsNothing(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	va, _ := kernels.ByAbbr("VA")
	ct, _ := kernels.ByAbbr("CT")
	if _, err := Run(context.Background(), cfg, []kernels.Profile{va, ct}, []int{8, 8}, 30_000, 5, NewDASEFair()); err != nil {
		t.Fatal(err)
	}
}
