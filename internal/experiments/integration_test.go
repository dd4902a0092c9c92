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

	"dasesim/internal/simcache"
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

// tinyStore holds every static, epoch and alone run of the tests in this
// package, so a run several tests read (the even-split random pairs of the
// ablation, Ext.B-Ext.E and Fig. 8, say) is simulated once per test binary.
// Its key keeps runs at other parameters apart, such as Table III's 60K
// cycles.
var tinyStore = sync.OnceValue(func() *simcache.Memory { return simcache.NewMemory(0) })

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
	store := tinyStore()
	rows, tab, err := Fig2a(p, store)
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
	checkGolden(t, "fig2a", tab, rows)
}

func TestFig2bIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	store := tinyStore()
	rows, tab, err := Fig2b(p, store)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.VictimShare + r.OtherShare + r.Wasted + r.Idle
		if sum < 0.9 || sum > 1.05 {
			t.Fatalf("%s decomposition sums to %v", r.Workload, sum)
		}
	}
	checkGolden(t, "fig2b", tab, rows)
}

func TestFig3Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	rows, corr, tab, err := Fig3(p, tinyStore())
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
	checkGolden(t, "fig3", tab, map[string]any{"rows": rows, "correlation": corr})
}

func TestFig4Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	store := tinyStore()
	rows, tab, err := Fig4(p, store)
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
	checkGolden(t, "fig4", tab, rows)
}

func TestTableIIIIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	p.SharedCycles = 60_000 // calibration needs a little longer
	rows, tab, err := TableIII(p, tinyStore())
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
	checkGolden(t, "tableIII", tab, rows)
}

func TestExtSchedulersIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	store := tinyStore()
	rows, tab, err := ExtSchedulers(p, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig2Pairs) {
		t.Fatalf("rows = %d", len(rows))
	}
	checkGolden(t, "extA", tab, rows)
}

func TestExtEstimatorsIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	store := tinyStore()
	res, tab, err := ExtEstimators(p, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) != p.PairSample {
		t.Fatalf("evals = %d", len(res.Evals))
	}
	if _, ok := res.MeanError["Profiled"]; !ok {
		t.Fatal("Profiled estimator missing from results")
	}
	checkGolden(t, "extB", tab, res.MeanError)
}

func TestFig9Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	store := tinyStore()
	res, tab, err := Fig9(p, store)
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
	checkGolden(t, "fig9", tab, res)
}

func TestExtQuadFairnessIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	store := tinyStore()
	res, _, err := ExtQuadFairness(p, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	// The golden holds the rows in Fig. 9's table, not Ext.F's title and notes.
	checkGolden(t, "extF", fig9Table(res), res)
}

func TestExtTemporalIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	store := tinyStore()
	rows, tab, err := ExtTemporal(p, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	checkGolden(t, "extG", tab, rows)
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
		store := tinyStore()
		pairs := evenJobs(p.Cfg.NumSMs, workload.RandomPairs(p.PairSample, p.Seed))
		if reduced.fig5, reduced.err = accuracy(p, accuracyColumns, pairs, store); reduced.err == nil {
			reduced.fig6, _, reduced.err = Fig6(p, store)
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
	checkGolden(t, "fig5", res.table("Fig.5"), res.MeanError)
}

func TestFig6Integration(t *testing.T) {
	_, res := reducedAccuracy(t)
	if len(res.Evals) != tinyParams().QuadCount {
		t.Fatalf("evals = %d", len(res.Evals))
	}
	checkGolden(t, "fig6", res.table("Fig.6"), res.MeanError)
}

func TestFig7Integration(t *testing.T) {
	res, tab := Fig7(reducedAccuracy(t))
	checkGolden(t, "fig7", tab, res)
}

func TestAblationIntegration(t *testing.T) {
	fig5, _ := reducedAccuracy(t)
	p := tinyParams()
	store := tinyStore()
	rows, tab, err := Ablation(p, store)
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
	store := tinyStore()
	a, _, err := Fig8a(p, store)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Fig8b(p, store)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8", sensitivityTable("Fig.8", append(a, b...)), append(a, b...))
}

func TestExtIntervalSensitivityIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	rows, tab, err := ExtIntervalSensitivity(tinyParams(), tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "extC", tab, rows)
}

func TestExtRequestMaxFactorIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	p := tinyParams()
	store := tinyStore()
	rows, tab, err := ExtRequestMaxFactor(p, store)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "extD", tab, rows)
}

func TestExtLargeGPUIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	rows, tab, err := ExtLargeGPU(tinyParams(), tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "extE", tab, rows)
}
