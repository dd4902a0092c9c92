package experiments

import (
	"fmt"
	"testing"

	"dasesim/internal/kernels"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
	"dasesim/internal/workload"
)

// TestListSession runs the simulation-free entries of List: the names are
// unique, Table III reads the alone runs from the session's store, where
// fixed results are planted under their AloneKey, Fig. 7 reuses the
// session's Fig. 5 and 6 results, and a failed accuracy study records
// nothing. The session's configuration is invalid, so any entry that
// simulated would fail.
func TestListSession(t *testing.T) {
	seen := map[string]bool{}
	byName := map[string]Experiment{}
	for _, e := range List {
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
		byName[e.Name] = e
	}
	if len(List) != 21 || List[0].Name != "tableII" || List[len(List)-1].Name != "ablation" {
		t.Errorf("List has %d entries from %s to %s", len(List), List[0].Name, List[len(List)-1].Name)
	}

	p := DefaultParams()
	p.Cfg.RequestMaxFactor = 0 // fails config validation
	store := simcache.NewMemory(0)
	for _, k := range kernels.All() {
		store.Put(workload.AloneKey(p.Cfg, k, p.SharedCycles, p.Seed),
			&sim.Result{Cycles: 1000, Apps: []sim.AppResult{{Abbr: k.Abbr, IPC: 2, BWUtil: k.PaperBW}}})
	}
	s := NewSession(p, store)

	data, tab, err := byName["tableIII"].Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rows, ok := data.([]TableIIIRow); !ok || len(rows) != 15 || len(tab.Rows) != 15 || store.Stats().Hits != 15 {
		t.Errorf("tableIII: data %T with %d table rows, store %+v, want 15 rows read from the store", data, len(tab.Rows), store.Stats())
	}

	data, tab, err = byName["tableII"].Run(s)
	if err != nil || data != tab {
		t.Errorf("tableII: data %p, table %p, err %v; want the table as its own data", data, tab, err)
	}

	if data, _, err := byName["fig5"].Run(s); err == nil || data != nil || s.fig5 != nil {
		t.Errorf("fig5 on an invalid config: data %v, err %v, session result %v; want an error and nothing recorded", data, err, s.fig5)
	}

	sb, _ := kernels.ByAbbr("SB")
	sd, _ := kernels.ByAbbr("SD")
	ev := &workload.Eval{
		Combo:  workload.Combo{Profiles: []kernels.Profile{sb, sd}},
		Errors: map[string][]float64{"DASE": {0.05}, "MISE": {0.3}, "ASM": {0.5}},
	}
	s.fig5, s.fig6 = newAccuracyResult([]*workload.Eval{ev}), newAccuracyResult([]*workload.Eval{ev, ev})
	data, tab, err = byName["fig7"].Run(s)
	if err != nil {
		t.Fatalf("fig7 simulated instead of reusing the session's results: %v", err)
	}
	want, wantTab := Fig7(s.fig5, s.fig6)
	if fmt.Sprintf("%+v", data) != fmt.Sprintf("%+v", want) || tab.String() != wantTab.String() {
		t.Errorf("fig7 = %+v\n%s\nwant %+v\n%s", data, tab, want, wantTab)
	}
}
