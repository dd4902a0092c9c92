package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dasesim/internal/core"
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

// TestTableIMatchesPaperBound pins Table I against its golden. It is pure
// arithmetic, so it runs under -short too.
func TestTableIMatchesPaperBound(t *testing.T) {
	p := DefaultParams()
	tab := TableI(p, 4)
	if s := tab.String(); !strings.Contains(s, "0.32 KB") {
		t.Errorf("Table I cost changed:\n%s", s)
	}
	checkGolden(t, "tableI", tab, core.HardwareCost(4, p.Cfg.Mem.NumBanks, p.Cfg.ATDSampledSets, p.Cfg.L2.Assoc, p.Cfg.NumSMs))
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
		{Errors: map[string][]float64{"DASE": {0.1, 0.3}, "MISE": {0.5}}},
		{Errors: map[string][]float64{"DASE": {0.2, 0.2}}},
	}
	res := newAccuracyResult(evals)
	if res.MeanError["DASE"] != 0.2 || res.MeanError["MISE"] != 0.5 {
		t.Fatalf("means = %v", res.MeanError)
	}
	if len(res.Evals) != 2 {
		t.Fatalf("evals = %d", len(res.Evals))
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

// TestFloatJSON: non-finite values encode as strings and decode back, and a
// finite Float encodes to the bytes a float64 does.
func TestFloatJSON(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -1.5, 1e-7, 3.388560596640486, 1e21} {
		data, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if plain, err := json.Marshal(v); err == nil && string(data) != string(plain) {
			t.Errorf("%v encodes as %s, float64 as %s", v, data, plain)
		}
		var back Float
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: unmarshal %s: %v", v, data, err)
		}
		if math.Float64bits(float64(back)) != math.Float64bits(v) {
			t.Errorf("%v round-trips to %v", v, back)
		}
	}
	if got, _ := json.Marshal([]Float{Float(math.Inf(1)), Float(math.NaN())}); string(got) != `["+Inf","NaN"]` {
		t.Errorf("encoding = %s", got)
	}
}
