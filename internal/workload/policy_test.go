package workload

import (
	"context"
	"math"
	"strings"
	"testing"

	"dasesim/internal/baseline"
	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/sched"
	"dasesim/internal/simcache"
)

// TestEvaluateAllPolicies runs two DASE-Fair jobs on one combo beside an
// Even job in one batch: each shared run must be bit-identical to a direct
// sched.Run of the same inputs, and each policy instance must count
// only its own reallocations, so the two equal policy jobs simulate twice.
// Neither adds a store entry: the store holds the static run and the two
// alone runs. It is small enough to stay in the -short suite, so the race
// detector sees stateful policies on the pool's goroutines.
func TestEvaluateAllPolicies(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	const cycles = 30_000
	opt := Options{Cfg: cfg, SharedCycles: cycles, Seed: 1}
	va, _ := kernels.ByAbbr("VA")
	ct, _ := kernels.ByAbbr("CT")
	combo := Combo{Profiles: []kernels.Profile{va, ct}}
	fair1, fair2 := sched.NewDASEFair(), sched.NewDASEFair()
	jobs := []Job{
		{Combo: combo, Alloc: []int{8, 8}, Policy: fair1},
		{Combo: combo, Alloc: []int{8, 8}},
		{Combo: combo, Alloc: []int{8, 8}, Policy: fair2},
	}
	store := simcache.NewMemory(0)
	evals, err := EvaluateAll(context.Background(), opt, jobs, store)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Misses != 3 || st.Entries != 3 {
		t.Errorf("store stats = %+v, want 3 simulated and stored runs: the static run and 2 alone runs", st)
	}

	direct := sched.NewDASEFair()
	wantFair, err := sched.Run(context.Background(), cfg, combo.Profiles, []int{8, 8}, cycles, 1, direct)
	if err != nil {
		t.Fatal(err)
	}
	wantEven, err := sched.Run(context.Background(), cfg, combo.Profiles, []int{8, 8}, cycles, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Reallocations == 0 {
		t.Fatal("DASE-Fair never reallocated: the test cannot tell the policies apart")
	}
	for i, want := range []struct {
		pol      *sched.DASEFair
		reallocs int
		ipc      []float64
	}{
		{fair1, direct.Reallocations, []float64{wantFair.Apps[0].IPC, wantFair.Apps[1].IPC}},
		{nil, 0, []float64{wantEven.Apps[0].IPC, wantEven.Apps[1].IPC}},
		{fair2, direct.Reallocations, []float64{wantFair.Apps[0].IPC, wantFair.Apps[1].IPC}},
	} {
		for a, ipc := range want.ipc {
			if got := evals[i].Shared.Apps[a].IPC; math.Float64bits(got) != math.Float64bits(ipc) {
				t.Errorf("job %d app %d: IPC %v, direct run %v", i, a, got, ipc)
			}
		}
		if want.pol != nil && want.pol.Reallocations != want.reallocs {
			t.Errorf("job %d: %d reallocations, direct run %d", i, want.pol.Reallocations, want.reallocs)
		}
	}
}

// TestEvaluatePolicyRejectsEpochRun: a policy instance is stateful, so it
// cannot drive both the plain and the priority-epoch run of one job.
func TestEvaluatePolicyRejectsEpochRun(t *testing.T) {
	cfg := config.Default()
	opt := Options{Cfg: cfg, SharedCycles: 10_000, Seed: 1, EpochEstimators: []core.Estimator{baseline.NewMISE()}}
	qr, _ := kernels.ByAbbr("QR")
	bg, _ := kernels.ByAbbr("BG")
	job := Job{Combo: Combo{Profiles: []kernels.Profile{qr, bg}}, Alloc: []int{8, 8}, Policy: sched.NewDASEFair()}
	store := simcache.NewMemory(0)
	if _, err := Evaluate(context.Background(), opt, job, store); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("err = %v, want the policy/epoch conflict", err)
	}
	if st := store.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("rejected job still did store lookups: %+v", st)
	}
}
