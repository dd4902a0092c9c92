package workload

import (
	"context"
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
	opt := Options{
		Cfg:             config.Default(),
		SharedCycles:    150_000,
		Seed:            1,
		WarmupIntervals: 1,
		Estimators:      []core.Estimator{core.New(core.Options{})},
		EpochEstimators: []core.Estimator{baseline.NewMISE(), baseline.NewASM()},
	}
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
		for _, est := range []core.Estimator{opt.Estimators[0], opt.EpochEstimators[0], opt.EpochEstimators[1]} {
			e := ev.Errors[est.Name()]
			v := ev.Estimates[est.Name()]
			t.Logf("  %-4s est=%.2f/%.2f err=%.1f%%/%.1f%%", est.Name(), v[0], v[1], e[0]*100, e[1]*100)
			sums[est.Name()] += e[0] + e[1]
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
