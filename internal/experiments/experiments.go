// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index). Each experiment returns its
// structured result together with its finished text table, and List names
// them all in print order, so cmd/experiments reproduces the numbers behind
// Figures 2-9 and Tables I-III with one command and knows no experiment by
// name.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dasesim/internal/baseline"
	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
	"dasesim/internal/workload"
)

// Params bundle the knobs shared by all experiments.
type Params struct {
	Cfg config.Config
	// SharedCycles is the shared-mode simulation budget per workload (the
	// paper uses 5M; the default here is smaller because behaviour is
	// steady-state long before that — see EXPERIMENTS.md).
	SharedCycles uint64
	Seed         uint64
	// Warmup intervals skipped in estimator averaging.
	Warmup int
	// QuadCount is the number of random four-app workloads (paper: 30).
	QuadCount int
	// PairSample is the number of random pairs for the sensitivity
	// studies (paper: 30).
	PairSample int
	// Fig9Cycles is the budget for the policy study; the dynamic policy
	// needs several estimation intervals plus SM-draining time before its
	// allocation takes effect, so it defaults to 3x SharedCycles.
	Fig9Cycles uint64
}

// DefaultParams returns the configuration used for EXPERIMENTS.md.
func DefaultParams() Params {
	return Params{
		Cfg:          config.Default(),
		SharedCycles: 250_000,
		Seed:         1,
		Warmup:       1,
		QuadCount:    30,
		PairSample:   30,
	}
}

// evalOptions returns the evaluation options of p with the given
// estimators on the plain shared run and no priority-epoch run. With no
// estimators it measures slowdowns only.
func (p Params) evalOptions(est ...core.Estimator) workload.Options {
	return workload.Options{
		Cfg:             p.Cfg,
		SharedCycles:    p.SharedCycles,
		Seed:            p.Seed,
		WarmupIntervals: p.Warmup,
		Estimators:      est,
	}
}

// policyOptions measure slowdowns only, over the policy-study budget
// (Fig9Cycles, or 3x SharedCycles) against alone runs at SharedCycles
// (Fig. 9, Ext.F, Ext.G).
func (p Params) policyOptions() workload.Options {
	opt := p.evalOptions()
	opt.SharedCycles, opt.AloneCycles = cmp.Or(p.Fig9Cycles, 3*p.SharedCycles), p.SharedCycles
	return opt
}

// alone returns prof's alone run at p's configuration, budget and seed
// from store.
func (p Params) alone(store *simcache.Memory, prof kernels.Profile) (*sim.Result, error) {
	return workload.Alone(context.TODO(), store, p.Cfg, prof, p.SharedCycles, p.Seed)
}

// allAlone reads every kernel's alone run through alone, in kernels.All()
// order, on min(GOMAXPROCS, 15) goroutines so the runs that miss the store
// simulate side by side. On failure it returns the error of the first
// failing kernel in that order.
func (p Params) allAlone(store *simcache.Memory) ([]*sim.Result, error) {
	profs := kernels.All()
	runs := make([]*sim.Result, len(profs))
	errs := make([]error, len(profs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(profs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(profs) {
					return
				}
				runs[i], errs[i] = p.alone(store, profs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// accuracyOptions compares DASE, MISE and ASM (Figs. 5-8): MISE and ASM are
// evaluated on their own priority-epoch system.
func (p Params) accuracyOptions() workload.Options {
	opt := p.evalOptions(core.New(core.Options{}))
	opt.EpochEstimators = []core.Estimator{baseline.NewMISE(), baseline.NewASM()}
	return opt
}

// evenJobs gives each combo the even SM split, the paper's default.
func evenJobs(numSMs int, combos []workload.Combo) []workload.Job {
	jobs := make([]workload.Job, len(combos))
	for i, c := range combos {
		jobs[i] = workload.Job{Combo: c, Alloc: sim.EvenAllocation(numSMs, len(c.Profiles))}
	}
	return jobs
}

// pairCombos resolves kernel-abbreviation pairs into combos.
func pairCombos(pairs [][2]string) ([]workload.Combo, error) {
	combos := make([]workload.Combo, len(pairs))
	for i, pr := range pairs {
		for _, abbr := range pr {
			prof, ok := kernels.ByAbbr(abbr)
			if !ok {
				return nil, fmt.Errorf("unknown kernel %q", abbr)
			}
			combos[i].Profiles = append(combos[i].Profiles, prof)
		}
	}
	return combos, nil
}

// evenPairs measures the slowdowns of kernel-abbreviation pairs under the
// even SM split.
func evenPairs(p Params, pairs [][2]string, store *simcache.Memory) ([]*workload.Eval, error) {
	combos, err := pairCombos(pairs)
	if err != nil {
		return nil, err
	}
	return workload.EvaluateAll(context.TODO(), p.evalOptions(), evenJobs(p.Cfg.NumSMs, combos), store)
}

// EstimatorNames lists the estimators compared in Figs. 5-7, in print order.
var EstimatorNames = []string{"DASE", "MISE", "ASM"}

// Table renders rows of labelled values as fixed-width text.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	line := func(cells []string) {
		for i, v := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// AccuracyResult is the outcome of Fig. 5 or Fig. 6: per-workload and
// average estimation errors per estimator.
type AccuracyResult struct {
	Evals     []*workload.Eval
	MeanError map[string]float64 // estimator -> mean |error| over all apps
}

func accuracy(opt workload.Options, jobs []workload.Job, store *simcache.Memory) (*AccuracyResult, error) {
	evals, err := workload.EvaluateAll(context.TODO(), opt, jobs, store)
	if err != nil {
		return nil, err
	}
	return newAccuracyResult(evals), nil
}

// newAccuracyResult folds every app's estimation error into each
// estimator's mean.
func newAccuracyResult(evals []*workload.Eval) *AccuracyResult {
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
	return res
}

// Fig5 evaluates all two-application workloads with the even SM split and
// compares DASE/MISE/ASM estimation error (paper Fig. 5).
func Fig5(p Params, store *simcache.Memory) (*AccuracyResult, *Table, error) {
	return accuracyStudy(p, store, workload.AllPairs(), "Fig.5 — Estimation error, two-application workloads")
}

// Fig6 evaluates the random four-application workloads (paper Fig. 6).
func Fig6(p Params, store *simcache.Memory) (*AccuracyResult, *Table, error) {
	return accuracyStudy(p, store, workload.RandomQuads(p.QuadCount, p.Seed), "Fig.6 — Estimation error, four-application workloads")
}

// accuracyStudy compares the estimators of Figs. 5 and 6 on combos at the
// even split.
func accuracyStudy(p Params, store *simcache.Memory, combos []workload.Combo, title string) (*AccuracyResult, *Table, error) {
	res, err := accuracy(p.accuracyOptions(), evenJobs(p.Cfg.NumSMs, combos), store)
	if err != nil {
		return nil, nil, err
	}
	return res, res.table(title), nil
}

// table returns the accuracy result as a table (one row per workload plus
// the average, the number the paper quotes).
func (r *AccuracyResult) table(title string) *Table {
	t := &Table{Title: title, Columns: append([]string{"workload"}, EstimatorNames...)}
	for _, ev := range r.Evals {
		row := []string{ev.Combo.Name()}
		for _, name := range EstimatorNames {
			row = append(row, meanPct(ev.Errors[name]))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVERAGE"}
	for _, name := range EstimatorNames {
		avg = append(avg, pct(r.MeanError[name]))
	}
	t.Rows = append(t.Rows, avg)
	return t
}

// meanPct renders the mean of an app's errors; an estimator without
// samples reads 0.0%.
func meanPct(errs []float64) string {
	if len(errs) == 0 {
		return pct(0)
	}
	return pct(metrics.Mean(errs))
}

// Fig7Result is the error-distribution histogram of Fig. 7.
type Fig7Result struct {
	// Fractions[name] holds the share of estimates in each bucket:
	// <10%, 10-20%, 20-40%, 40-80%, >=80%.
	Fractions map[string][]float64
	Buckets   []string
}

// Fig7 builds the error distribution from the Fig. 5 and Fig. 6 samples,
// and its table.
func Fig7(two, four *AccuracyResult) (*Fig7Result, *Table) {
	labels := []string{"<10%", "10-20%", "20-40%", "40-80%", ">=80%"}
	out := &Fig7Result{Fractions: map[string][]float64{}, Buckets: labels}
	t := &Table{Title: "Fig.7 — Distribution of slowdown estimation error", Columns: append([]string{"estimator"}, labels...)}
	names := slices.Clone(EstimatorNames)
	slices.Sort(names)
	for _, name := range names {
		h := metrics.NewHistogram(0.10, 0.20, 0.40, 0.80)
		for _, r := range []*AccuracyResult{two, four} {
			if r == nil {
				continue
			}
			for _, ev := range r.Evals {
				for _, e := range ev.Errors[name] {
					h.Add(e)
				}
			}
		}
		out.Fractions[name] = h.Fractions()
		row := []string{name}
		for _, f := range out.Fractions[name] {
			row = append(row, pct(f))
		}
		t.Rows = append(t.Rows, row)
	}
	return out, t
}
