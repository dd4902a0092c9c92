package experiments

import (
	"context"

	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
	"dasesim/internal/workload"
)

// ExtTemporalRow compares multitasking paradigms on one workload.
type ExtTemporalRow struct {
	Workload string
	// Weighted speedup (Σ 1/slowdown) and unfairness per paradigm. An app
	// that never gets a time slice makes temporal unfairness +Inf.
	WSTemporal, WSSpatial, WSFair    float64
	UnfTemporal, UnfSpatial, UnfFair Float
}

// ExtTemporal (Ext.G) reproduces the premise of spatial multitasking
// (Adriaens et al., the paper's reference [1]): running two kernels
// side-by-side on partitioned SMs beats time-slicing the whole GPU,
// especially when one kernel cannot fill the machine. Compares temporal
// round-robin (2-interval slices), the spatial even split, and DASE-Fair.
func ExtTemporal(p Params, store *simcache.Memory) ([]ExtTemporalRow, *Table, error) {
	pairs := [][2]string{{"SN", "VA"}, {"QR", "SB"}, {"CT", "NN"}, {"BG", "SA"}, {"SD", "SP"}}
	combos, err := pairCombos(pairs)
	if err != nil {
		return nil, nil, err
	}
	// Three jobs per pair: temporal, spatial, DASE-Fair.
	even := sim.EvenAllocation(p.Cfg.NumSMs, 2)
	var jobs []workload.Job
	for _, c := range combos {
		jobs = append(jobs,
			workload.Job{Combo: c, Alloc: []int{p.Cfg.NumSMs, 0}, Policy: sched.NewTimeSlice(2)},
			workload.Job{Combo: c, Alloc: even},
			workload.Job{Combo: c, Alloc: even, Policy: sched.NewDASEFair()})
	}
	evals, err := workload.EvaluateAll(context.TODO(), p.policyOptions(), jobs, store)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title: "Ext.G — Temporal vs spatial multitasking vs DASE-Fair (weighted speedup / unfairness)",
		Columns: []string{"workload",
			"ws temporal", "ws spatial", "ws DASE-Fair",
			"unf temporal", "unf spatial", "unf DASE-Fair"},
	}
	var wt, wsp, wf float64
	rows := make([]ExtTemporalRow, len(combos))
	for i, c := range combos {
		temporal, spatial, fair := evals[3*i], evals[3*i+1], evals[3*i+2]
		r := ExtTemporalRow{
			Workload:    c.Name(),
			WSTemporal:  metrics.WeightedSpeedup(temporal.Actual),
			WSSpatial:   metrics.WeightedSpeedup(spatial.Actual),
			WSFair:      metrics.WeightedSpeedup(fair.Actual),
			UnfTemporal: Float(temporal.Unfairness),
			UnfSpatial:  Float(spatial.Unfairness),
			UnfFair:     Float(fair.Unfairness),
		}
		rows[i] = r
		t.Rows = append(t.Rows, []string{r.Workload,
			f2(r.WSTemporal), f2(r.WSSpatial), f2(r.WSFair),
			f2(float64(r.UnfTemporal)), f2(float64(r.UnfSpatial)), f2(float64(r.UnfFair))})
		wt += r.WSTemporal
		wsp += r.WSSpatial
		wf += r.WSFair
	}
	if n := float64(len(rows)); n > 0 {
		t.Rows = append(t.Rows, []string{"AVERAGE", f2(wt / n), f2(wsp / n), f2(wf / n), "", "", ""})
	}
	t.Notes = append(t.Notes, "spatial multitasking's premise (paper ref [1]): partitioned SMs beat whole-GPU time slicing, most for kernels that cannot fill the machine (SN, QR, CT, BG)")
	return rows, t, nil
}
