package experiments

import (
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/workload"
)

// ExtTemporalRow compares multitasking paradigms on one workload.
type ExtTemporalRow struct {
	Workload string
	// Weighted speedup (Σ 1/slowdown) and unfairness per paradigm.
	WSTemporal, WSSpatial, WSFair    float64
	UnfTemporal, UnfSpatial, UnfFair float64
}

// ExtTemporal (Ext.G) reproduces the premise of spatial multitasking
// (Adriaens et al., the paper's reference [1]): running two kernels
// side-by-side on partitioned SMs beats time-slicing the whole GPU,
// especially when one kernel cannot fill the machine. Compares temporal
// round-robin (2-interval slices), the spatial even split, and DASE-Fair.
func ExtTemporal(p Params, cache workload.Baseline) ([]ExtTemporalRow, error) {
	pairs := [][2]string{{"SN", "VA"}, {"QR", "SB"}, {"CT", "NN"}, {"BG", "SA"}, {"SD", "SP"}}
	cycles := p.fig9Budget()
	rows := make([]ExtTemporalRow, 0, len(pairs))
	for _, pr := range pairs {
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
		slowUnder := func(pol sched.Policy, alloc []int) ([]float64, error) {
			res, err := sched.Run(p.Cfg, ps, alloc, cycles, p.Seed, pol)
			if err != nil {
				return nil, err
			}
			out := make([]float64, 2)
			for i := range out {
				out[i] = metrics.Slowdown(aloneIPC[i], res.Apps[i].IPC)
			}
			return out, nil
		}

		temporal, err := slowUnder(sched.NewTimeSlice(2), []int{p.Cfg.NumSMs, 0})
		if err != nil {
			return nil, err
		}
		spatial, err := slowUnder(sched.Even{}, evenAlloc(p.Cfg.NumSMs, 2))
		if err != nil {
			return nil, err
		}
		fair, err := slowUnder(sched.NewDASEFair(), evenAlloc(p.Cfg.NumSMs, 2))
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExtTemporalRow{
			Workload:    pr[0] + "+" + pr[1],
			WSTemporal:  metrics.WeightedSpeedup(temporal),
			WSSpatial:   metrics.WeightedSpeedup(spatial),
			WSFair:      metrics.WeightedSpeedup(fair),
			UnfTemporal: metrics.Unfairness(temporal),
			UnfSpatial:  metrics.Unfairness(spatial),
			UnfFair:     metrics.Unfairness(fair),
		})
	}
	return rows, nil
}

// RenderExtTemporal renders the paradigm comparison.
func RenderExtTemporal(rows []ExtTemporalRow) *Table {
	t := &Table{
		Title: "Ext.G — Temporal vs spatial multitasking vs DASE-Fair (weighted speedup / unfairness)",
		Columns: []string{"workload",
			"ws temporal", "ws spatial", "ws DASE-Fair",
			"unf temporal", "unf spatial", "unf DASE-Fair"},
	}
	var wt, wsp, wf float64
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Workload,
			f2(r.WSTemporal), f2(r.WSSpatial), f2(r.WSFair),
			f2(r.UnfTemporal), f2(r.UnfSpatial), f2(r.UnfFair)})
		wt += r.WSTemporal
		wsp += r.WSSpatial
		wf += r.WSFair
	}
	if n := float64(len(rows)); n > 0 {
		t.Rows = append(t.Rows, []string{"AVERAGE", f2(wt / n), f2(wsp / n), f2(wf / n), "", "", ""})
	}
	t.Notes = append(t.Notes, "spatial multitasking's premise (paper ref [1]): partitioned SMs beat whole-GPU time slicing, most for kernels that cannot fill the machine (SN, QR, CT, BG)")
	return t
}
