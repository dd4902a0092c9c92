package experiments

import (
	"dasesim/internal/baseline"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sim"
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
	rows := make([]ExtSchedRow, 0, len(Fig2Pairs))
	for _, pr := range Fig2Pairs {
		a, _ := kernels.ByAbbr(pr[0])
		b, _ := kernels.ByAbbr(pr[1])
		ps := []kernels.Profile{a, b}
		aloneIPC := make([]float64, 2)
		for i, prof := range ps {
			alone, err := cache.Get(prof)
			if err != nil {
				return nil, err
			}
			aloneIPC[i] = alone.Apps[0].IPC
		}
		slowdowns := func(cfg Params, appRR bool) ([]float64, error) {
			c := cfg.Cfg
			c.Mem.AppAwareRR = appRR
			res, err := sim.RunShared(c, ps, evenAlloc(c.NumSMs, 2), cfg.SharedCycles, cfg.Seed)
			if err != nil {
				return nil, err
			}
			out := make([]float64, 2)
			for i := range out {
				out[i] = metrics.Slowdown(aloneIPC[i], res.Apps[i].IPC)
			}
			return out, nil
		}
		fr, err := slowdowns(p, false)
		if err != nil {
			return nil, err
		}
		rr, err := slowdowns(p, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExtSchedRow{
			Workload:     pr[0] + "+" + pr[1],
			UnfFRFCFS:    metrics.Unfairness(fr),
			UnfAppRR:     metrics.Unfairness(rr),
			HSpeedFRFCFS: metrics.HarmonicSpeedup(fr),
			HSpeedAppRR:  metrics.HarmonicSpeedup(rr),
		})
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
	profiles := kernels.All()
	aloneBW := map[string]float64{}
	for _, prof := range profiles {
		res, err := cache.Get(prof)
		if err != nil {
			return nil, err
		}
		aloneBW[prof.Abbr] = res.Apps[0].BWUtil
	}
	opt := p.evalOptions()
	combos := workload.RandomPairs(p.PairSample, p.Seed)
	jobs := make([]workload.Job, len(combos))
	for i, c := range combos {
		jobs[i] = workload.Job{Combo: c, Alloc: evenAlloc(p.Cfg.NumSMs, 2)}
	}
	// Per-combo estimator construction needs the per-app profile order, so
	// evaluate serially here.
	res := &AccuracyResult{MeanError: map[string]float64{}}
	counts := map[string]int{}
	for _, job := range jobs {
		bw := make([]float64, len(job.Combo.Profiles))
		for i, prof := range job.Combo.Profiles {
			bw[i] = aloneBW[prof.Abbr]
		}
		o := opt
		o.Estimators = []core.Estimator{
			core.New(core.Options{}),
			baseline.NewProfiled(bw),
		}
		ev, err := workload.Evaluate(o, job.Combo, job.Alloc, cache)
		if err != nil {
			return nil, err
		}
		res.Evals = append(res.Evals, ev)
		for name, errs := range ev.Errors {
			for _, e := range errs {
				res.MeanError[name] += e
				counts[name]++
			}
		}
	}
	for name := range res.MeanError {
		res.MeanError[name] /= float64(counts[name])
	}
	return res, nil
}

// RenderExtEstimators renders the profiled-estimator comparison.
func RenderExtEstimators(r *AccuracyResult) *Table {
	t := &Table{
		Title:   "Ext.B — DASE vs offline-profiled bandwidth-ratio estimation",
		Columns: []string{"workload", "DASE", "Profiled"},
	}
	for _, ev := range r.Evals {
		t.Rows = append(t.Rows, []string{
			ev.Combo.Name(), pct(mean(ev.Errors["DASE"])), pct(mean(ev.Errors["Profiled"])),
		})
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", pct(r.MeanError["DASE"]), pct(r.MeanError["Profiled"])})
	t.Notes = append(t.Notes, "the profiled approach needs an offline pass per kernel and input; DASE needs none (the paper's practicality argument)")
	return t
}
