package workload

import (
	"context"
	"reflect"
	"testing"

	"dasesim/internal/baseline"
	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
)

// TestAccuracySample evaluates a handful of representative pairs and logs
// per-estimator errors; it asserts only that DASE beats the baselines on
// average, the paper's headline claim.
func TestAccuracySample(t *testing.T) {
	if testing.Short() {
		t.Skip("slow accuracy sample")
	}
	opt := Options{Cfg: config.Default(), SharedCycles: 150_000, Seed: 1, Epochs: true}
	cols := []struct {
		name  string
		est   core.Estimator
		epoch bool
	}{{"DASE", core.New(core.Options{}), false}, {"MISE", baseline.NewMISE(), true}, {"ASM", baseline.NewASM(), true}}
	store := simcache.NewMemory(0)
	pairs := [][2]string{{"SB", "SD"}, {"SA", "SD"}, {"VA", "CT"}, {"QR", "BG"}, {"BS", "SA"}, {"SN", "NN"}}
	sums := map[string]float64{}
	n := 0
	for _, pr := range pairs {
		a, _ := kernels.ByAbbr(pr[0])
		b, _ := kernels.ByAbbr(pr[1])
		combo := Combo{Profiles: []kernels.Profile{a, b}}
		ev, err := Evaluate(context.Background(), opt, Job{Combo: combo, Alloc: sim.EvenAllocation(opt.Cfg.NumSMs, 2)}, store)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: actual=%.2f/%.2f unf=%.2f", combo.Name(), ev.Actual[0], ev.Actual[1], ev.Unfairness)
		for _, c := range cols {
			run, truth := ev.Shared, ev.Actual
			if c.epoch {
				run, truth = ev.Epoch, ev.ActualEpoch
			}
			v, e := Score(c.est, run.Snapshots, truth, 1)
			t.Logf("  %-4s est=%.2f/%.2f err=%.1f%%/%.1f%%", c.name, v[0], v[1], e[0]*100, e[1]*100)
			sums[c.name] += e[0] + e[1]
		}
		n += 2
	}
	for name, s := range sums {
		t.Logf("MEAN %-4s %.1f%%", name, s/float64(n)*100)
	}
	if sums["DASE"] >= sums["MISE"] || sums["DASE"] >= sums["ASM"] {
		t.Errorf("DASE (%.3f) expected more accurate than MISE (%.3f) and ASM (%.3f)",
			sums["DASE"]/float64(n), sums["MISE"]/float64(n), sums["ASM"]/float64(n))
	}
}

// cycleEstimator estimates every app's slowdown as the snapshot's cycle, so
// an average names the intervals it read.
type cycleEstimator struct{}

func (cycleEstimator) Estimate(snap *sim.IntervalSnapshot) []float64 {
	out := make([]float64, len(snap.Apps))
	for i := range out {
		out[i] = float64(snap.Cycle)
	}
	return out
}

// TestScore: warm-up intervals are skipped, a warm-up that would leave no
// interval averages them all, and each error is relative to the given truth.
func TestScore(t *testing.T) {
	snaps := make([]sim.IntervalSnapshot, 3)
	for i := range snaps {
		snaps[i] = sim.IntervalSnapshot{Cycle: uint64(i + 1), Apps: make([]sim.AppInterval, 2)}
	}
	truth := []float64{2, 5}
	for _, tc := range []struct {
		warmup    int
		estimates []float64
		errs      []float64
	}{
		{0, []float64{2, 2}, []float64{0, 0.6}},
		{1, []float64{2.5, 2.5}, []float64{0.25, 0.5}},
		{2, []float64{3, 3}, []float64{0.5, 0.4}},
		{3, []float64{2, 2}, []float64{0, 0.6}},
		{5, []float64{2, 2}, []float64{0, 0.6}},
	} {
		est, errs := Score(cycleEstimator{}, snaps, truth, tc.warmup)
		if !reflect.DeepEqual(est, tc.estimates) || !reflect.DeepEqual(errs, tc.errs) {
			t.Errorf("warmup %d: estimates %v, errors %v; want %v, %v", tc.warmup, est, errs, tc.estimates, tc.errs)
		}
	}
	if est, errs := Score(cycleEstimator{}, nil, truth, 1); est != nil || len(errs) != 0 {
		t.Errorf("no intervals: estimates %v, errors %v; want none", est, errs)
	}
}
