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

// evalOptions returns the evaluation options of p: the plain shared run
// and its slowdowns, with no priority-epoch run.
func (p Params) evalOptions() workload.Options {
	return workload.Options{Cfg: p.Cfg, SharedCycles: p.SharedCycles, Seed: p.Seed}
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

// column is one estimator of an accuracy study, named by its row or
// column label. It reads each eval's plain run, or with epoch set the
// priority-epoch run, and is judged against that run's own slowdowns.
type column struct {
	name  string
	est   core.Estimator
	epoch bool
}

// errors scores c on ev, skipping warmup intervals: each app's |error|.
func (c column) errors(ev *workload.Eval, warmup int) []float64 {
	run, truth := ev.Shared, ev.Actual
	if c.epoch {
		run, truth = ev.Epoch, ev.ActualEpoch
	}
	_, errs := workload.Score(c.est, run.Snapshots, truth, warmup)
	return errs
}

// daseColumn is DASE at its defaults on the plain run.
var daseColumn = column{"DASE", core.New(core.Options{}), false}

// accuracyColumns compare DASE, MISE and ASM (Figs. 5-7, Ext.B): MISE and
// ASM are judged on their own priority-epoch system.
var accuracyColumns = []column{daseColumn, {"MISE", baseline.NewMISE(), true}, {"ASM", baseline.NewASM(), true}}

// AccuracyResult is the outcome of Fig. 5 or Fig. 6: per-workload and
// average estimation errors per estimator.
type AccuracyResult struct {
	Evals []*workload.Eval
	// Errors[name][i] holds each app's |error| of column name on Evals[i].
	Errors    map[string][][]float64
	MeanError map[string]float64 // estimator -> mean |error| over all apps
}

// accuracy evaluates jobs once, with the epoch run only when some column
// reads it, and scores every column on every eval.
func accuracy(p Params, cols []column, jobs []workload.Job, store *simcache.Memory) (*AccuracyResult, error) {
	opt := p.evalOptions()
	opt.Epochs = slices.ContainsFunc(cols, func(c column) bool { return c.epoch })
	evals, err := workload.EvaluateAll(context.TODO(), opt, jobs, store)
	if err != nil {
		return nil, err
	}
	res := &AccuracyResult{Evals: evals, Errors: map[string][][]float64{}}
	for _, c := range cols {
		for _, ev := range evals {
			res.Errors[c.name] = append(res.Errors[c.name], c.errors(ev, p.Warmup))
		}
	}
	res.foldMeans()
	return res, nil
}

// foldMeans sets each column's mean error over every app of every eval,
// summed in eval order, then app order; a column without samples has none.
func (r *AccuracyResult) foldMeans() {
	r.MeanError = map[string]float64{}
	for name, perEval := range r.Errors {
		sum, n := 0.0, 0
		for _, errs := range perEval {
			for _, e := range errs {
				sum += e
				n++
			}
		}
		if n > 0 {
			r.MeanError[name] = sum / float64(n)
		}
	}
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
	res, err := accuracy(p, accuracyColumns, evenJobs(p.Cfg.NumSMs, combos), store)
	if err != nil {
		return nil, nil, err
	}
	return res, res.table(title), nil
}

// table returns the accuracy result as a table (one row per workload plus
// the average, the number the paper quotes).
func (r *AccuracyResult) table(title string) *Table {
	t := &Table{Title: title, Columns: append([]string{"workload"}, EstimatorNames...)}
	for i, ev := range r.Evals {
		row := []string{ev.Combo.Name()}
		for _, name := range EstimatorNames {
			row = append(row, meanPct(r.Errors[name][i]))
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
			for _, errs := range r.Errors[name] {
				for _, e := range errs {
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
