package experiments

import (
	"fmt"

	"dasesim/internal/core"
	"dasesim/internal/simcache"
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
func Fig8a(p Params, store *simcache.Memory) ([]SensitivityRow, *Table, error) {
	return allocSensitivity(p, store, "Fig.8(a) — DASE error vs SM allocation", "%d+%d", Fig8aAllocations)
}

// Fig8b measures DASE's accuracy across equal allocations of varying size
// (paper Fig. 8(b)): both apps get k SMs, the rest of the GPU stays idle.
func Fig8b(p Params, store *simcache.Memory) ([]SensitivityRow, *Table, error) {
	return allocSensitivity(p, store, "Fig.8(b) — DASE error vs number of SMs", "%d+%d SMs", [][]int{{2, 2}, {4, 4}, {6, 6}, {8, 8}})
}

// allocSensitivity measures DASE's mean error on the random pair sample
// under each allocation, labelled by label's format of the two SM counts.
func allocSensitivity(p Params, store *simcache.Memory, title, label string, allocs [][]int) ([]SensitivityRow, *Table, error) {
	opt := p.evalOptions(core.New(core.Options{}))
	combos := workload.RandomPairs(p.PairSample, p.Seed)
	rows := make([]SensitivityRow, 0, len(allocs))
	for _, alloc := range allocs {
		jobs := make([]workload.Job, len(combos))
		for i, c := range combos {
			jobs[i] = workload.Job{Combo: c, Alloc: alloc}
		}
		acc, err := accuracy(opt, jobs, store)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, SensitivityRow{
			Label:     fmt.Sprintf(label, alloc[0], alloc[1]),
			MeanError: acc.MeanError["DASE"],
		})
	}
	return rows, sensitivityTable(title, rows), nil
}

// pairError is DASE's mean error on q's random pair sample at the even
// split, against alone baselines of q's own configuration.
func pairError(q Params, store *simcache.Memory) (float64, error) {
	acc, err := accuracy(q.evalOptions(core.New(core.Options{})), evenJobs(q.Cfg.NumSMs, workload.RandomPairs(q.PairSample, q.Seed)), store)
	if err != nil {
		return 0, err
	}
	return acc.MeanError["DASE"], nil
}

// sensitivityTable renders DASE's mean error per configuration.
func sensitivityTable(title string, rows []SensitivityRow) *Table {
	t := &Table{Title: title, Columns: []string{"allocation", "DASE mean error"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Label, pct(r.MeanError)})
	}
	return t
}
