package experiments

import (
	"context"
	"strconv"

	"dasesim/internal/sched"
	"dasesim/internal/simcache"
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
func Fig9(p Params, store *simcache.Memory) (*Fig9Result, *Table, error) {
	var combos []workload.Combo
	for _, c := range workload.AllPairs() {
		if fig9Unfit[c.Profiles[0].Abbr] || fig9Unfit[c.Profiles[1].Abbr] {
			continue
		}
		combos = append(combos, c)
	}
	res, err := policyStudy(p, combos, store)
	if err != nil {
		return nil, nil, err
	}
	return res, fig9Table(res), nil
}

// ExtQuadFairness (Ext.F) extends the Fig. 9 policy study to
// four-application workloads: the DASE-Fair search space grows from 15
// two-way partitions to C(15,3) = 455 compositions of the 16 SMs.
func ExtQuadFairness(p Params, store *simcache.Memory, quads int) (*Fig9Result, *Table, error) {
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
	res, err := policyStudy(p, combos, store)
	if err != nil {
		return nil, nil, err
	}
	t := fig9Table(res)
	t.Title = "Ext.F — Unfairness and H.Speedup on four-application workloads"
	t.Notes = []string{
		"fairness improvement: " + pct(res.FairnessImprovement()),
		"performance improvement: " + pct(res.PerformanceImprovement()),
		"extension beyond the paper: Fig. 9 evaluates pairs only",
	}
	return res, t, nil
}

// policyStudy runs each combo from the even split for the policy-study
// budget, once as a static split and once under DASE-Fair, and compares
// the measured unfairness and harmonic speedup.
func policyStudy(p Params, combos []workload.Combo, store *simcache.Memory) (*Fig9Result, error) {
	opt := p.policyOptions()
	var jobs []workload.Job
	fair := make([]*sched.DASEFair, len(combos))
	for i, job := range evenJobs(p.Cfg.NumSMs, combos) {
		fair[i] = sched.NewDASEFair()
		jobs = append(jobs, job)
		job.Policy = fair[i]
		jobs = append(jobs, job)
	}
	evals, err := workload.EvaluateAll(context.TODO(), opt, jobs, store)
	if err != nil {
		return nil, err
	}

	res := &Fig9Result{Rows: make([]Fig9Row, len(combos))}
	for i, c := range combos {
		evenEv, fairEv := evals[2*i], evals[2*i+1]
		res.Rows[i] = Fig9Row{
			Workload:       c.Name(),
			UnfairnessEven: evenEv.Unfairness,
			UnfairnessFair: fairEv.Unfairness,
			HSpeedupEven:   evenEv.HSpeedup,
			HSpeedupFair:   fairEv.HSpeedup,
			Reallocations:  fair[i].Reallocations,
		}
		res.MeanUnfEven += evenEv.Unfairness
		res.MeanUnfFair += fairEv.Unfairness
		res.MeanHSEven += evenEv.HSpeedup
		res.MeanHSFair += fairEv.HSpeedup
	}
	if n := float64(len(combos)); n > 0 {
		res.MeanUnfEven /= n
		res.MeanUnfFair /= n
		res.MeanHSEven /= n
		res.MeanHSFair /= n
	}
	return res, nil
}

// fig9Table renders the policy comparison.
func fig9Table(r *Fig9Result) *Table {
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
