package experiments

import (
	"fmt"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/workload"
)

// ExtIntervalSensitivity (Ext.C) sweeps the estimation interval length.
// The paper fixes 50K cycles, stating it "is enough effective to capture
// application characteristics" (§4.4); this experiment quantifies that:
// DASE's accuracy across interval lengths on a random pair sample.
func ExtIntervalSensitivity(p Params) ([]SensitivityRow, error) {
	intervals := []uint64{12_500, 25_000, 50_000, 100_000}
	combos := workload.RandomPairs(p.PairSample, p.Seed)
	rows := make([]SensitivityRow, 0, len(intervals))
	for _, iv := range intervals {
		q := p
		q.Cfg.IntervalCycles = iv
		// Alone runs are interval-independent in aggregate, but the cache
		// is keyed per configuration here for strict comparability.
		cache := workload.NewAloneCache(q.Cfg, q.SharedCycles, q.Seed)
		acc, err := accuracy(q.evalOptions(core.New(core.Options{})), evenJobs(q.Cfg.NumSMs, combos), cache)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SensitivityRow{
			Label:     fmt.Sprintf("%dK cycles", iv/1000),
			MeanError: acc.MeanError["DASE"],
		})
	}
	return rows, nil
}

// ExtLargeGPU (Ext.E) re-runs the DASE accuracy study on the Large (24-SM,
// 8-partition) device: the model reads only relative counters, so its
// accuracy should carry across GPU generations without re-tuning.
func ExtLargeGPU(p Params) ([]SensitivityRow, error) {
	rows := make([]SensitivityRow, 0, 2)
	for _, cfgCase := range []struct {
		label string
		cfg   config.Config
	}{
		{"Table II GPU (16 SM, 6 MC)", p.Cfg},
		{"Large GPU (24 SM, 8 MC)", config.Large()},
	} {
		q := p
		q.Cfg = cfgCase.cfg
		cache := workload.NewAloneCache(q.Cfg, q.SharedCycles, q.Seed)
		combos := workload.RandomPairs(q.PairSample, q.Seed)
		acc, err := accuracy(q.evalOptions(core.New(core.Options{})), evenJobs(q.Cfg.NumSMs, combos), cache)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SensitivityRow{Label: cfgCase.label, MeanError: acc.MeanError["DASE"]})
	}
	return rows, nil
}

// ExtRequestMaxFactor (Ext.D) sweeps the empirical derating factor of
// Eq. 20 (paper default 0.6) with the static Requestmax model, isolating
// how sensitive the MBB classification and bandwidth caps are to it — the
// exploration the paper defers ("the strategy of dynamically calculating
// Requestmax ... can be further explored").
func ExtRequestMaxFactor(p Params, cache workload.Baseline) ([]SensitivityRow, error) {
	factors := []float64{0.4, 0.5, 0.6, 0.7, 0.8}
	combos := workload.RandomPairs(p.PairSample, p.Seed)
	jobs := evenJobs(p.Cfg.NumSMs, combos)
	rows := make([]SensitivityRow, 0, len(factors)+1)
	for _, f := range factors {
		q := p
		q.Cfg.RequestMaxFactor = f
		acc, err := accuracy(q.evalOptions(core.New(core.Options{StaticRequestMax: true})), jobs, cache)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SensitivityRow{
			Label:     fmt.Sprintf("static %.1f", f),
			MeanError: acc.MeanError["DASE"],
		})
	}
	// Reference: the dynamic Requestmax extension (repo default).
	acc, err := accuracy(p.evalOptions(core.New(core.Options{})), jobs, cache)
	if err != nil {
		return nil, err
	}
	rows = append(rows, SensitivityRow{Label: "dynamic (default)", MeanError: acc.MeanError["DASE"]})
	return rows, nil
}
