package experiments

import (
	"context"

	"dasesim/internal/baseline"
	"dasesim/internal/kernels"
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
func ExtSchedulers(p Params, cache workload.Baseline) ([]ExtSchedRow, error) {
	var runs [2][]*workload.Eval // FR-FCFS, app-aware RR
	for i := range runs {
		q := p
		q.Cfg.Mem.AppAwareRR = i == 1
		evals, err := evenPairs(q, Fig2Pairs, cache)
		if err != nil {
			return nil, err
		}
		runs[i] = evals
	}
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
	}
	return rows, nil
}

// RenderExtSchedulers renders the scheduler comparison.
func RenderExtSchedulers(rows []ExtSchedRow) *Table {
	t := &Table{
		Title:   "Ext.A — Memory scheduler comparison: FR-FCFS vs app-aware RR (even SM split)",
		Columns: []string{"workload", "unf FR-FCFS", "unf app-RR", "hs FR-FCFS", "hs app-RR"},
	}
	var ufSum, urSum float64
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Workload, f2(r.UnfFRFCFS), f2(r.UnfAppRR), f2(r.HSpeedFRFCFS), f2(r.HSpeedAppRR)})
		ufSum += r.UnfFRFCFS
		urSum += r.UnfAppRR
	}
	if len(rows) > 0 {
		t.Rows = append(t.Rows, []string{"AVERAGE",
			f2(ufSum / float64(len(rows))), f2(urSum / float64(len(rows))), "", ""})
	}
	t.Notes = append(t.Notes, "application-aware memory scheduling reduces memory-level starvation (Jog et al.), but does not equalise slowdowns the way SM repartitioning can")
	return t
}

// ExtEstimators compares DASE against the offline-profiling estimator the
// paper contrasts with (Aguilera et al.): profiled alone-bandwidth ratios.
func ExtEstimators(p Params, cache workload.Baseline) (*AccuracyResult, error) {
	// Build the offline profile the way those works do: run every kernel
	// alone and record its bandwidth share.
	ctx := context.TODO()
	aloneBW := map[string]float64{}
	for _, prof := range kernels.All() {
		res, err := cache.Get(ctx, prof)
		if err != nil {
			return nil, err
		}
		aloneBW[prof.Abbr] = res.Apps[0].BWUtil
	}
	// Per-combo estimator construction needs the per-app profile order, so
	// evaluate serially here.
	jobs := evenJobs(p.Cfg.NumSMs, workload.RandomPairs(p.PairSample, p.Seed))
	evals := make([]*workload.Eval, len(jobs))
	for i, job := range jobs {
		bw := make([]float64, len(job.Combo.Profiles))
		for a, prof := range job.Combo.Profiles {
			bw[a] = aloneBW[prof.Abbr]
		}
		opt := p.accuracyOptions()
		opt.Estimators = append(opt.Estimators, baseline.NewProfiled(bw))
		ev, err := workload.Evaluate(ctx, opt, job, cache)
		if err != nil {
			return nil, err
		}
		evals[i] = ev
	}
	return newAccuracyResult(evals), nil
}

// RenderExtEstimators renders the profiled-estimator comparison.
func RenderExtEstimators(r *AccuracyResult) *Table {
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
	return t
}
