package experiments

import (
	"context"

	"dasesim/internal/baseline"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/simcache"
	"dasesim/internal/workload"
)

// ExtSchedRow compares memory-controller scheduling policies on one
// workload (extension beyond the paper: its related work, Jog et al.'s
// application-aware scheduler, head-to-head with the baseline FR-FCFS and
// with SM-level DASE-Fair repartitioning).
type ExtSchedRow struct {
	Workload     string
	UnfFRFCFS    float64
	UnfAppRR     float64
	HSpeedFRFCFS float64
	HSpeedAppRR  float64
}

// ExtSchedulers measures unfairness under FR-FCFS vs the application-aware
// round-robin memory scheduler, even SM split, on the motivation pairs.
// Each half divides by alone runs of its own configuration; the two read
// alike, because the round-robin path needs two apps.
func ExtSchedulers(p Params, store *simcache.Memory) ([]ExtSchedRow, *Table, error) {
	var runs [2][]*workload.Eval // FR-FCFS, app-aware RR
	for i := range runs {
		q := p
		q.Cfg.Mem.AppAwareRR = i == 1
		evals, err := evenPairs(q, Fig2Pairs, store)
		if err != nil {
			return nil, nil, err
		}
		runs[i] = evals
	}
	t := &Table{
		Title:   "Ext.A — Memory scheduler comparison: FR-FCFS vs app-aware RR (even SM split)",
		Columns: []string{"workload", "unf FR-FCFS", "unf app-RR", "hs FR-FCFS", "hs app-RR"},
		Notes:   []string{"application-aware memory scheduling reduces memory-level starvation (Jog et al.), but does not equalise slowdowns the way SM repartitioning can"},
	}
	var ufSum, urSum float64
	rows := make([]ExtSchedRow, len(Fig2Pairs))
	for i, fr := range runs[0] {
		rr := runs[1][i]
		rows[i] = ExtSchedRow{
			Workload:     fr.Combo.Name(),
			UnfFRFCFS:    fr.Unfairness,
			UnfAppRR:     rr.Unfairness,
			HSpeedFRFCFS: fr.HSpeedup,
			HSpeedAppRR:  rr.HSpeedup,
		}
		t.Rows = append(t.Rows, []string{fr.Combo.Name(), f2(fr.Unfairness), f2(rr.Unfairness), f2(fr.HSpeedup), f2(rr.HSpeedup)})
		ufSum += fr.Unfairness
		urSum += rr.Unfairness
	}
	if n := float64(len(rows)); n > 0 {
		t.Rows = append(t.Rows, []string{"AVERAGE", f2(ufSum / n), f2(urSum / n), "", ""})
	}
	return rows, t, nil
}

// ExtEstimators compares DASE against the offline-profiling estimator the
// paper contrasts with (Aguilera et al.): profiled alone-bandwidth ratios.
func ExtEstimators(p Params, store *simcache.Memory) (*AccuracyResult, *Table, error) {
	// Build the offline profile the way those works do: run every kernel
	// alone and record its bandwidth share.
	aloneBW := map[string]float64{}
	for _, prof := range kernels.All() {
		res, err := p.alone(store, prof)
		if err != nil {
			return nil, nil, err
		}
		aloneBW[prof.Abbr] = res.Apps[0].BWUtil
	}
	jobs := evenJobs(p.Cfg.NumSMs, workload.RandomPairs(p.PairSample, p.Seed))
	evals, err := workload.EvaluateAll(context.TODO(), p.accuracyOptions(), jobs, store)
	if err != nil {
		return nil, nil, err
	}
	// The profiled estimator is built per pair from its apps' alone
	// bandwidths, so it scores each pair's shared run here.
	for _, ev := range evals {
		bw := make([]float64, len(ev.Combo.Profiles))
		for a, prof := range ev.Combo.Profiles {
			bw[a] = aloneBW[prof.Abbr]
		}
		est := core.AverageEstimates(baseline.NewProfiled(bw), ev.Shared.Snapshots, p.Warmup)
		errs := make([]float64, len(est))
		for i := range est {
			errs[i] = metrics.Error(est[i], ev.Actual[i])
		}
		ev.Estimates["Profiled"], ev.Errors["Profiled"] = est, errs
	}
	r := newAccuracyResult(evals)
	t := &Table{
		Title:   "Ext.B — DASE vs offline-profiled bandwidth-ratio estimation",
		Columns: []string{"workload", "DASE", "Profiled"},
	}
	for _, ev := range r.Evals {
		t.Rows = append(t.Rows, []string{
			ev.Combo.Name(), meanPct(ev.Errors["DASE"]), meanPct(ev.Errors["Profiled"]),
		})
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", pct(r.MeanError["DASE"]), pct(r.MeanError["Profiled"])})
	t.Notes = append(t.Notes, "the profiled approach needs an offline pass per kernel and input; DASE needs none (the paper's practicality argument)")
	return r, t, nil
}
