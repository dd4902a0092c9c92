package experiments

import (
	"runtime"
	"strconv"
	"sync"

	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/workload"
)

// Fig9Row compares SM-allocation policies on one workload.
type Fig9Row struct {
	Workload       string
	UnfairnessEven float64
	UnfairnessFair float64
	HSpeedupEven   float64
	HSpeedupFair   float64
	Reallocations  int
}

// Fig9Result aggregates the policy comparison (paper Fig. 9).
type Fig9Result struct {
	Rows []Fig9Row
	// Mean unfairness / harmonic speedup per policy and the relative
	// improvements the paper quotes (16.1% fairness, 3.7% performance).
	MeanUnfEven, MeanUnfFair float64
	MeanHSEven, MeanHSFair   float64
}

// FairnessImprovement returns the mean relative unfairness reduction.
func (r *Fig9Result) FairnessImprovement() float64 {
	if r.MeanUnfEven == 0 {
		return 0
	}
	return (r.MeanUnfEven - r.MeanUnfFair) / r.MeanUnfEven
}

// PerformanceImprovement returns the mean relative harmonic-speedup gain.
func (r *Fig9Result) PerformanceImprovement() float64 {
	if r.MeanHSEven == 0 {
		return 0
	}
	return (r.MeanHSFair - r.MeanHSEven) / r.MeanHSEven
}

// fig9Unfit lists kernels excluded from the policy study, as the paper
// excludes kernels "which have too less thread blocks or are too short":
// draining cannot reallocate their SMs in useful time.
var fig9Unfit = map[string]bool{"SN": true}

// Fig9 runs every two-application workload (minus unfit kernels) under the
// even split and under DASE-Fair, comparing unfairness and harmonic
// speedup.
func Fig9(p Params, cache workload.Baseline) (*Fig9Result, error) {
	var combos []workload.Combo
	for _, c := range workload.AllPairs() {
		if fig9Unfit[c.Profiles[0].Abbr] || fig9Unfit[c.Profiles[1].Abbr] {
			continue
		}
		combos = append(combos, c)
	}

	rows := make([]Fig9Row, len(combos))
	errs := make([]error, len(combos))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(combos) {
		workers = len(combos)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				rows[i], errs[i] = fig9One(p, combos[i], cache)
			}
		}()
	}
	for i := range combos {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Fig9Result{Rows: rows}
	for _, r := range rows {
		res.MeanUnfEven += r.UnfairnessEven
		res.MeanUnfFair += r.UnfairnessFair
		res.MeanHSEven += r.HSpeedupEven
		res.MeanHSFair += r.HSpeedupFair
	}
	n := float64(len(rows))
	if n > 0 {
		res.MeanUnfEven /= n
		res.MeanUnfFair /= n
		res.MeanHSEven /= n
		res.MeanHSFair /= n
	}
	return res, nil
}

func fig9One(p Params, combo workload.Combo, cache workload.Baseline) (Fig9Row, error) {
	alloc := evenAlloc(p.Cfg.NumSMs, len(combo.Profiles))
	row := Fig9Row{Workload: combo.Name()}

	aloneIPC := make([]float64, len(combo.Profiles))
	for i, prof := range combo.Profiles {
		alone, err := cache.Get(prof)
		if err != nil {
			return row, err
		}
		aloneIPC[i] = alone.Apps[0].IPC
	}

	cycles := p.fig9Budget()
	evenRes, err := sched.Run(p.Cfg, combo.Profiles, alloc, cycles, p.Seed, sched.Even{})
	if err != nil {
		return row, err
	}
	pol := sched.NewDASEFair()
	fairRes, err := sched.Run(p.Cfg, combo.Profiles, alloc, cycles, p.Seed, pol)
	if err != nil {
		return row, err
	}

	slowEven := make([]float64, len(aloneIPC))
	slowFair := make([]float64, len(aloneIPC))
	for i := range aloneIPC {
		slowEven[i] = metrics.Slowdown(aloneIPC[i], evenRes.Apps[i].IPC)
		slowFair[i] = metrics.Slowdown(aloneIPC[i], fairRes.Apps[i].IPC)
	}
	row.UnfairnessEven = metrics.Unfairness(slowEven)
	row.UnfairnessFair = metrics.Unfairness(slowFair)
	row.HSpeedupEven = metrics.HarmonicSpeedup(slowEven)
	row.HSpeedupFair = metrics.HarmonicSpeedup(slowFair)
	row.Reallocations = pol.Reallocations
	return row, nil
}

// ExtQuadFairness (Ext.F) extends the Fig. 9 policy study to
// four-application workloads: the DASE-Fair search space grows from 15
// two-way partitions to C(15,3) = 455 compositions of the 16 SMs.
func ExtQuadFairness(p Params, cache workload.Baseline, quads int) (*Fig9Result, error) {
	var combos []workload.Combo
	for _, c := range workload.RandomQuads(quads*3, p.Seed) {
		unfit := false
		for _, prof := range c.Profiles {
			if fig9Unfit[prof.Abbr] {
				unfit = true
			}
		}
		if !unfit {
			combos = append(combos, c)
		}
		if len(combos) == quads {
			break
		}
	}
	rows := make([]Fig9Row, len(combos))
	for i, combo := range combos {
		row, err := fig9One(p, combo, cache)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	res := &Fig9Result{Rows: rows}
	for _, r := range rows {
		res.MeanUnfEven += r.UnfairnessEven
		res.MeanUnfFair += r.UnfairnessFair
		res.MeanHSEven += r.HSpeedupEven
		res.MeanHSFair += r.HSpeedupFair
	}
	if n := float64(len(rows)); n > 0 {
		res.MeanUnfEven /= n
		res.MeanUnfFair /= n
		res.MeanHSEven /= n
		res.MeanHSFair /= n
	}
	return res, nil
}

// RenderFig9 renders the policy comparison.
func RenderFig9(r *Fig9Result) *Table {
	t := &Table{
		Title:   "Fig.9 — Unfairness and H.Speedup: even split vs DASE-Fair",
		Columns: []string{"workload", "unf even", "unf fair", "hs even", "hs fair", "reallocs"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Workload, f2(row.UnfairnessEven), f2(row.UnfairnessFair),
			f2(row.HSpeedupEven), f2(row.HSpeedupFair), strconv.Itoa(row.Reallocations),
		})
	}
	t.Rows = append(t.Rows, []string{
		"AVERAGE", f2(r.MeanUnfEven), f2(r.MeanUnfFair), f2(r.MeanHSEven), f2(r.MeanHSFair), "",
	})
	t.Notes = append(t.Notes,
		"fairness improvement: "+pct(r.FairnessImprovement())+" (paper: 16.1%)",
		"performance improvement: "+pct(r.PerformanceImprovement())+" (paper: 3.7%)",
	)
	return t
}
