package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dasesim/internal/workload"
)

func tinyParams() Params {
	p := DefaultParams()
	p.SharedCycles = 30_000
	p.Cfg.IntervalCycles = 10_000
	p.PairSample = 2
	p.QuadCount = 1
	p.Fig9Cycles = 30_000
	return p
}

// checkGolden compares an experiment's rendered table, followed by its data
// printed with %+v (every float at full precision, infinities included),
// against testdata/<name>.golden. The engine is deterministic, so a
// difference is a behaviour change. To regenerate after an intended change,
// delete the file and rerun the test, for example:
//
//	rm internal/experiments/testdata/fig9.golden && go test ./internal/experiments -run TestFig9Integration
//
// A missing golden is written and the test fails, so a fresh file is always
// reviewed before it is committed.
func checkGolden(t *testing.T, name string, tab *Table, data any) {
	t.Helper()
	got := fmt.Sprintf("%s%+v\n", tab, data)
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s: review it and rerun", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s:\n got:\n%s\nwant:\n%s", name, path, got, want)
	}
}

func TestFig2aIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	rows, err := Fig2a(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig2Pairs) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Unfairness < 1 {
			t.Fatalf("%s unfairness %v < 1", r.Workload, r.Unfairness)
		}
	}
	checkGolden(t, "fig2a", RenderFig2a(rows), rows)
}

func TestFig2bIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	rows, err := Fig2b(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.VictimShare + r.OtherShare + r.Wasted + r.Idle
		if sum < 0.9 || sum > 1.05 {
			t.Fatalf("%s decomposition sums to %v", r.Workload, sum)
		}
	}
	checkGolden(t, "fig2b", RenderFig2b(rows), rows)
}

func TestFig3Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	rows, corr, err := Fig3(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's core observation: performance is directly proportional
	// to the request service rate for a memory-intensive kernel.
	if corr < 0.95 {
		t.Fatalf("service-rate/IPC correlation %v, want near 1", corr)
	}
	checkGolden(t, "fig3", RenderFig3(rows, corr), map[string]any{"rows": rows, "correlation": corr})
}

func TestFig4Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	rows, err := Fig4(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The MBB observation: shared sum within 40% of alone.
		ratio := r.SharedSum / r.AloneRate
		if ratio < 0.6 || ratio > 1.4 {
			t.Fatalf("partner %s: shared sum/alone = %v, MBB observation broken", r.Partner, ratio)
		}
	}
	checkGolden(t, "fig4", RenderFig4(rows), rows)
}

func TestTableIIIIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	p.SharedCycles = 60_000 // calibration needs a little longer
	rows, err := TableIII(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeasBW <= 0 || r.MeasBW > 1 {
			t.Fatalf("%s measured BW %v", r.Abbr, r.MeasBW)
		}
		// Calibration contract: within 12 percentage points of Table III
		// even at this reduced budget.
		diff := r.MeasBW - r.PaperBW
		if diff < -0.12 || diff > 0.12 {
			t.Errorf("%s measured %.3f vs paper %.3f (out of band)", r.Abbr, r.MeasBW, r.PaperBW)
		}
	}
	checkGolden(t, "tableIII", RenderTableIII(rows), rows)
}

func TestExtSchedulersIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	rows, err := ExtSchedulers(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig2Pairs) {
		t.Fatalf("rows = %d", len(rows))
	}
	checkGolden(t, "extA", RenderExtSchedulers(rows), rows)
}

func TestExtEstimatorsIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	res, err := ExtEstimators(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) != p.PairSample {
		t.Fatalf("evals = %d", len(res.Evals))
	}
	if _, ok := res.MeanError["Profiled"]; !ok {
		t.Fatal("Profiled estimator missing from results")
	}
	checkGolden(t, "extB", RenderExtEstimators(res), res.MeanError)
}

func TestFig9Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	res, err := Fig9(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 91 { // C(14,2): SN excluded
		t.Fatalf("rows = %d, want 91", len(res.Rows))
	}
	reallocs := 0
	for _, r := range res.Rows {
		reallocs += r.Reallocations
	}
	if reallocs == 0 {
		t.Fatal("DASE-Fair never reallocated: the study compares two identical runs")
	}
	checkGolden(t, "fig9", RenderFig9(res), res)
}

func TestExtQuadFairnessIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	res, err := ExtQuadFairness(p, cache, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	checkGolden(t, "extF", RenderFig9(res), res)
}

func TestExtTemporalIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	rows, err := ExtTemporal(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	checkGolden(t, "extG", RenderExtTemporal(rows), rows)
	// The rows hold +Inf at this budget; cmd/experiments -json must still
	// encode them, and decoding gives back the same %+v data.
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []ExtTemporalRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if got, want := fmt.Sprintf("%+v", back), fmt.Sprintf("%+v", rows); got != want {
		t.Errorf("JSON round trip changed the rows:\n got %s\nwant %s", got, want)
	}
}

// reduced holds the reduced Fig. 5 and Fig. 6 results, simulated once for
// the Fig. 5, 6 and 7 goldens and the ablation's cross-check.
var reduced struct {
	once       sync.Once
	fig5, fig6 *AccuracyResult
	err        error
}

// reducedAccuracy returns Fig. 5's accuracy evaluation on the reduced pair
// set (all 105 pairs take minutes) and Fig. 6's on the reduced quads.
func reducedAccuracy(t *testing.T) (fig5, fig6 *AccuracyResult) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs simulations")
	}
	reduced.once.Do(func() {
		p := tinyParams()
		cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
		pairs := evenJobs(p.Cfg.NumSMs, workload.RandomPairs(p.PairSample, p.Seed))
		if reduced.fig5, reduced.err = accuracy(p.accuracyOptions(), pairs, cache); reduced.err == nil {
			reduced.fig6, reduced.err = Fig6(p, cache)
		}
	})
	if reduced.err != nil {
		t.Fatal(reduced.err)
	}
	return reduced.fig5, reduced.fig6
}

func TestFig5Integration(t *testing.T) {
	res, _ := reducedAccuracy(t)
	if len(res.Evals) != tinyParams().PairSample {
		t.Fatalf("evals = %d", len(res.Evals))
	}
	checkGolden(t, "fig5", res.Render("Fig.5"), res.MeanError)
}

func TestFig6Integration(t *testing.T) {
	_, res := reducedAccuracy(t)
	if len(res.Evals) != tinyParams().QuadCount {
		t.Fatalf("evals = %d", len(res.Evals))
	}
	checkGolden(t, "fig6", res.Render("Fig.6"), res.MeanError)
}

func TestFig7Integration(t *testing.T) {
	res := Fig7(reducedAccuracy(t))
	checkGolden(t, "fig7", res.Render(), res)
}

func TestAblationIntegration(t *testing.T) {
	fig5, _ := reducedAccuracy(t)
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	rows, tab, err := Ablation(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ablationOptions)+4 {
		t.Fatalf("rows = %d, want %d", len(rows), len(ablationOptions)+4)
	}
	// Every DASE variant reads the shared runs Fig. 5's DASE column reads.
	if ref := fig5.MeanError["DASE"]; rows[0].Changed != ref {
		t.Errorf("reference error %v, Fig. 5's DASE on the same pairs %v", rows[0].Changed, ref)
	}
	for _, r := range rows[:len(ablationOptions)] {
		if r.Default != rows[0].Changed {
			t.Errorf("%s: default %v, want the reference's %v", r.Variant, r.Default, rows[0].Changed)
		}
	}
	checkGolden(t, "ablation", tab, rows)
}

func TestFig8Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	a, err := Fig8a(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig8b(p, cache)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8", RenderSensitivity("Fig.8", append(a, b...)), append(a, b...))
}
