package experiments

import (
	"strings"
	"testing"

	"dasesim/internal/kernels"
	"dasesim/internal/workload"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"x", "y"}, {"longer", "z"}},
		Notes:   []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"demo", "longer", "a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
	}
	md := tab.Markdown()
	for _, want := range []string{"**demo**", "| a | b |", "| 1 | 2 |", "*n*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestEvenAlloc(t *testing.T) {
	if got := evenAlloc(16, 2); got[0] != 8 || got[1] != 8 {
		t.Fatalf("evenAlloc(16,2) = %v", got)
	}
	got := evenAlloc(16, 3)
	if got[0]+got[1]+got[2] != 16 || got[0] != 6 {
		t.Fatalf("evenAlloc(16,3) = %v", got)
	}
}

func TestFig7Bucketing(t *testing.T) {
	two := &AccuracyResult{
		Evals: []*workload.Eval{
			{Errors: map[string][]float64{
				"DASE": {0.05, 0.15},
				"MISE": {0.5, 0.9},
				"ASM":  {0.25, 0.45},
			}},
		},
	}
	r := Fig7(two, nil)
	d := r.Fractions["DASE"]
	if d[0] != 0.5 || d[1] != 0.5 {
		t.Fatalf("DASE buckets = %v", d)
	}
	m := r.Fractions["MISE"]
	if m[3] != 0.5 || m[4] != 0.5 {
		t.Fatalf("MISE buckets = %v", m)
	}
	tab := r.Render()
	if len(tab.Rows) != 3 {
		t.Fatalf("Fig7 table rows = %d", len(tab.Rows))
	}
}

// TestAccuracyRenderAverageRow pins the Fig. 5/6 table shape: one row per
// workload with each estimator's mean error, an estimator without samples
// reading 0.0%, and the AVERAGE row — the number the paper quotes — taken
// from MeanError rather than recomputed from the rows.
func TestAccuracyRenderAverageRow(t *testing.T) {
	sb, _ := kernels.ByAbbr("SB")
	sd, _ := kernels.ByAbbr("SD")
	r := &AccuracyResult{
		Evals: []*workload.Eval{{
			Combo:  workload.Combo{Profiles: []kernels.Profile{sb, sd}},
			Errors: map[string][]float64{"DASE": {0.02, 0.04}, "MISE": {0.3}},
		}},
		MeanError: map[string]float64{"DASE": 0.05, "MISE": 0.3, "ASM": 0.25},
	}
	tab := r.Render("Fig.5")
	want := [][]string{
		{"SB+SD", "3.0%", "30.0%", "0.0%"},
		{"AVERAGE", "5.0%", "30.0%", "25.0%"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("rows = %q, want %q", tab.Rows, want)
	}
	for i := range want {
		if strings.Join(tab.Rows[i], "|") != strings.Join(want[i], "|") {
			t.Errorf("row %d = %q, want %q", i, tab.Rows[i], want[i])
		}
	}
	if got := strings.Join(tab.Columns, "|"); got != "workload|DASE|MISE|ASM" {
		t.Errorf("columns = %s", got)
	}
}

func TestTableIIMentionsKeyParameters(t *testing.T) {
	s := TableII(DefaultParams()).String()
	for _, want := range []string{"16 SMs", "48 warps", "768 KB", "FR-FCFS", "tRP=18"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestTableIMatchesPaperBound(t *testing.T) {
	s := TableI(DefaultParams(), 4).String()
	if !strings.Contains(s, "0.32 KB") {
		t.Errorf("Table I cost changed:\n%s", s)
	}
}

func TestFig2PairsAreKnownKernels(t *testing.T) {
	for _, pr := range Fig2Pairs {
		for _, ab := range pr {
			if _, ok := kernels.ByAbbr(ab); !ok {
				t.Errorf("Fig2 pair references unknown kernel %q", ab)
			}
		}
	}
}

func TestCorrelation(t *testing.T) {
	rows := []Fig3Row{{ServiceRate: 1, IPC: 2}, {ServiceRate: 2, IPC: 4}, {ServiceRate: 3, IPC: 6}}
	if got := correlation(rows); got < 0.999 {
		t.Fatalf("perfectly linear data: corr = %v", got)
	}
	anti := []Fig3Row{{ServiceRate: 1, IPC: 6}, {ServiceRate: 2, IPC: 4}, {ServiceRate: 3, IPC: 2}}
	if got := correlation(anti); got > -0.999 {
		t.Fatalf("anti-correlated data: corr = %v", got)
	}
	if got := correlation(rows[:1]); got != 0 {
		t.Fatalf("degenerate data: corr = %v", got)
	}
}

func TestAccuracyAggregation(t *testing.T) {
	evals := []*workload.Eval{
		{Errors: map[string][]float64{"DASE": {0.1, 0.3}}},
		{Errors: map[string][]float64{"DASE": {0.2, 0.2}}},
	}
	res := &AccuracyResult{Evals: evals, MeanError: map[string]float64{}}
	counts := map[string]int{}
	for _, ev := range evals {
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
	if res.MeanError["DASE"] != 0.2 {
		t.Fatalf("mean = %v", res.MeanError["DASE"])
	}
}

func TestFig9ResultImprovements(t *testing.T) {
	r := &Fig9Result{MeanUnfEven: 2.0, MeanUnfFair: 1.6, MeanHSEven: 0.5, MeanHSFair: 0.55}
	if got := r.FairnessImprovement(); got < 0.199 || got > 0.201 {
		t.Fatalf("fairness improvement = %v", got)
	}
	if got := r.PerformanceImprovement(); got < 0.099 || got > 0.101 {
		t.Fatalf("performance improvement = %v", got)
	}
	var zero Fig9Result
	if zero.FairnessImprovement() != 0 || zero.PerformanceImprovement() != 0 {
		t.Fatal("zero result should yield zero improvements")
	}
}
