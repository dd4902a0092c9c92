package experiments

import (
	"context"
	"fmt"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
	"dasesim/internal/workload"
)

// ExtIntervalSensitivity (Ext.C) sweeps the estimation interval length.
// The paper fixes 50K cycles, stating it "is enough effective to capture
// application characteristics" (§4.4); this experiment quantifies that:
// DASE's accuracy across interval lengths on a random pair sample.
func ExtIntervalSensitivity(p Params, store *simcache.Memory) ([]SensitivityRow, *Table, error) {
	intervals := []uint64{12_500, 25_000, 50_000, 100_000}
	rows := make([]SensitivityRow, 0, len(intervals))
	for _, iv := range intervals {
		// Alone runs are interval-independent in aggregate, but each
		// interval length gets alone runs of its own for strict
		// comparability.
		q := p
		q.Cfg.IntervalCycles = iv
		e, err := pairError(q, store)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, SensitivityRow{Label: fmt.Sprintf("%dK cycles", iv/1000), MeanError: e})
	}
	return rows, sensitivityTable("Ext.C — DASE error vs estimation interval length", rows), nil
}

// ExtLargeGPU (Ext.E) re-runs the DASE accuracy study on the Large (24-SM,
// 8-partition) device: the model reads only relative counters, so its
// accuracy should carry across GPU generations without re-tuning.
func ExtLargeGPU(p Params, store *simcache.Memory) ([]SensitivityRow, *Table, error) {
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
		e, err := pairError(q, store)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, SensitivityRow{Label: cfgCase.label, MeanError: e})
	}
	return rows, sensitivityTable("Ext.E — DASE accuracy across GPU configurations", rows), nil
}

// ExtRequestMaxFactor (Ext.D) sweeps the empirical derating factor of
// Eq. 20 (paper default 0.6) with the static Requestmax model, isolating
// how sensitive the MBB classification and bandwidth caps are to it — the
// exploration the paper defers ("the strategy of dynamically calculating
// Requestmax ... can be further explored"). The factor reaches only the
// estimator, through each snapshot, so every row is scored on one set of
// shared runs at p.Cfg, the dynamic Requestmax (repo default) included.
func ExtRequestMaxFactor(p Params, store *simcache.Memory) ([]SensitivityRow, *Table, error) {
	var ests []core.Estimator
	for _, f := range []float64{0.4, 0.5, 0.6, 0.7, 0.8} {
		ests = append(ests, namedDASE{core.New(core.Options{StaticRequestMax: true}), fmt.Sprintf("static %.1f", f), f})
	}
	ests = append(ests, namedDASE{core.New(core.Options{}), "dynamic (default)", 0})
	acc, err := accuracy(p.evalOptions(ests...), evenJobs(p.Cfg.NumSMs, workload.RandomPairs(p.PairSample, p.Seed)), store)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]SensitivityRow, len(ests))
	for i, e := range ests {
		rows[i] = SensitivityRow{Label: e.Name(), MeanError: acc.MeanError[e.Name()]}
	}
	return rows, sensitivityTable("Ext.D — DASE error vs Requestmax factor (Eq. 20)", rows), nil
}

// AblationRow is one design element of DASE or of the simulated substrate
// changed on its own: the metric it moves, with the element changed and at
// the repository default.
type AblationRow struct {
	Variant string
	Metric  string
	Changed float64
	Default float64
}

// vaCTUnfairness is the one ablation metric that is a ratio, not a share.
const vaCTUnfairness = "VA+CT unfairness"

// ablationOptions are the DASE variants of the ablation (DESIGN.md §5), one
// design element changed each; the first is the reference.
var ablationOptions = []struct {
	label string
	opt   core.Options
}{
	{"full DASE (reference)", core.Options{}},
	{"without BLP normalisation (Eq. 14)", core.Options{DisableBLPNormalization: true}},
	{"without alpha discount (Eq. 15)", core.Options{DisableAlphaDiscount: true}},
	{"without scaling caps (Eqs. 24/25)", core.Options{DisableScalingCaps: true}},
	{"literal Eq. 9 bank term (BLP-BLPAccess)", core.Options{LiteralBankInterference: true}},
	{"static Requestmax (Eq. 20, 0.6)", core.Options{StaticRequestMax: true}},
	{"forced all-NMBB classification", core.Options{ForceClass: core.ForceNMBB}},
	{"forced all-MBB classification", core.Options{ForceClass: core.ForceMBB}},
}

// namedDASE is DASE under one set of options, named after its row, so that
// every variant is scored on the same shared runs. A non-zero factor
// replaces each snapshot's Eq. 20 factor (Ext.D).
type namedDASE struct {
	*core.DASE
	name   string
	factor float64
}

func (d namedDASE) Name() string { return d.name }

func (d namedDASE) Estimate(snap *sim.IntervalSnapshot) []float64 {
	if d.factor == 0 {
		return d.DASE.Estimate(snap)
	}
	s := *snap
	s.ReqMaxFactor = d.factor
	return d.DASE.Estimate(&s)
}

// Ablation measures what each design element contributes, and returns the
// rows with their table. The eight DASE variants are scored on one set of
// shared runs, the reduced Fig. 5 pair set (p.PairSample random pairs, even
// split). The four substrate rows change the simulated GPU: DRAM refresh
// and the writeback L2 move SB's alone bandwidth, the app-aware round-robin
// memory scheduler moves the unfairness of VA+CT (the Fig. 2 cache-victim
// pair), and an unsampled ATD moves DASE's error on VA+CT.
func Ablation(p Params, store *simcache.Memory) ([]AblationRow, *Table, error) {
	ests := make([]core.Estimator, len(ablationOptions))
	for i, v := range ablationOptions {
		ests[i] = namedDASE{core.New(v.opt), v.label, 0}
	}
	acc, err := accuracy(p.evalOptions(ests...), evenJobs(p.Cfg.NumSMs, workload.RandomPairs(p.PairSample, p.Seed)), store)
	if err != nil {
		return nil, nil, err
	}
	ref := acc.MeanError[ablationOptions[0].label]
	rows := make([]AblationRow, 0, len(ablationOptions)+4)
	for _, v := range ablationOptions {
		rows = append(rows, AblationRow{v.label, "DASE mean error, pairs", acc.MeanError[v.label], ref})
	}

	refresh, writeback, rr, atd := p.Cfg, p.Cfg, p.Cfg, p.Cfg
	refresh.Mem.TREFI, refresh.Mem.TRFC = 5460, 224 // ~3.9 us and ~160 ns at 1.4 GHz
	writeback.L2.Writeback = true
	rr.Mem.AppAwareRR = true
	atd.ATDSampledSets = atd.L2.Sets()

	sb, _ := kernels.ByAbbr("SB")
	sbAlone, err := p.alone(store, sb)
	if err != nil {
		return nil, nil, err
	}
	for _, sub := range []struct {
		label string
		cfg   config.Config
	}{{"DRAM refresh (tREFI 5460, tRFC 224)", refresh}, {"writeback L2", writeback}} {
		q := p
		q.Cfg = sub.cfg
		res, err := q.alone(store, sb)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, AblationRow{sub.label, "SB alone bandwidth", res.Apps[0].BWUtil, sbAlone.Apps[0].BWUtil})
	}

	// VA+CT at the defaults, then under rr and atd (each with alone runs
	// of its own), with DASE at its defaults.
	combos, err := pairCombos([][2]string{{"VA", "CT"}})
	if err != nil {
		return nil, nil, err
	}
	job := evenJobs(p.Cfg.NumSMs, combos)[0]
	var vaCT [3]*workload.Eval
	for i, cfg := range []config.Config{p.Cfg, rr, atd} {
		q := p
		q.Cfg = cfg
		if vaCT[i], err = workload.Evaluate(context.TODO(), q.evalOptions(core.New(core.Options{})), job, store); err != nil {
			return nil, nil, err
		}
	}
	rows = append(rows,
		AblationRow{"app-aware RR memory scheduler", vaCTUnfairness, vaCT[1].Unfairness, vaCT[0].Unfairness},
		AblationRow{"full (unsampled) ATD", "VA+CT DASE error", metrics.Mean(vaCT[2].Errors["DASE"]), metrics.Mean(vaCT[0].Errors["DASE"])})
	return rows, renderAblation(rows), nil
}

func renderAblation(rows []AblationRow) *Table {
	t := &Table{
		Title:   "Ablation — one design element changed at a time",
		Columns: []string{"variant", "metric", "changed", "default"},
	}
	for _, r := range rows {
		format := pct
		if r.Metric == vaCTUnfairness {
			format = f2
		}
		t.Rows = append(t.Rows, []string{r.Variant, r.Metric, format(r.Changed), format(r.Default)})
	}
	t.Notes = append(t.Notes, "pairs: the random pairs of the sensitivity studies, even split; every DASE variant is scored on the same shared runs")
	return t
}
