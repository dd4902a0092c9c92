package experiments

import (
	"fmt"

	"dasesim/internal/core"
	"dasesim/internal/workload"
)

// Fig8aAllocations are the uneven SM splits of the sensitivity study
// (paper Fig. 8(a): e.g. "6+10" = 6 SMs for the first app, 10 for the
// second).
var Fig8aAllocations = [][]int{{4, 12}, {6, 10}, {8, 8}, {10, 6}, {12, 4}}

// SensitivityRow is DASE's mean estimation error for one configuration.
type SensitivityRow struct {
	Label     string
	MeanError float64
}

// Fig8a measures DASE's accuracy across uneven SM allocations on a random
// pair sample (paper Fig. 8(a)).
func Fig8a(p Params, cache workload.Baseline) ([]SensitivityRow, error) {
	opt := p.evalOptions(core.New(core.Options{}))
	combos := workload.RandomPairs(p.PairSample, p.Seed)
	rows := make([]SensitivityRow, 0, len(Fig8aAllocations))
	for _, alloc := range Fig8aAllocations {
		jobs := make([]workload.Job, len(combos))
		for i, c := range combos {
			jobs[i] = workload.Job{Combo: c, Alloc: alloc}
		}
		acc, err := accuracy(opt, jobs, cache)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SensitivityRow{
			Label:     fmt.Sprintf("%d+%d", alloc[0], alloc[1]),
			MeanError: acc.MeanError["DASE"],
		})
	}
	return rows, nil
}

// Fig8b measures DASE's accuracy across equal allocations of varying size
// (paper Fig. 8(b)): both apps get k SMs, the rest of the GPU stays idle.
func Fig8b(p Params, cache workload.Baseline) ([]SensitivityRow, error) {
	opt := p.evalOptions(core.New(core.Options{}))
	combos := workload.RandomPairs(p.PairSample, p.Seed)
	sizes := []int{2, 4, 6, 8}
	rows := make([]SensitivityRow, 0, len(sizes))
	for _, k := range sizes {
		jobs := make([]workload.Job, len(combos))
		for i, c := range combos {
			jobs[i] = workload.Job{Combo: c, Alloc: []int{k, k}}
		}
		acc, err := accuracy(opt, jobs, cache)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SensitivityRow{
			Label:     fmt.Sprintf("%d+%d SMs", k, k),
			MeanError: acc.MeanError["DASE"],
		})
	}
	return rows, nil
}

// RenderSensitivity renders a Fig. 8 sensitivity table.
func RenderSensitivity(title string, rows []SensitivityRow) *Table {
	t := &Table{Title: title, Columns: []string{"allocation", "DASE mean error"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Label, pct(r.MeanError)})
	}
	return t
}
