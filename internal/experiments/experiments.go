// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index). Each experiment returns a
// structured result that the cmd/experiments tool renders as a text table,
// so the numbers behind Figures 2-9 and Tables I-III can be reproduced with
// one command.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dasesim/internal/baseline"
	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/metrics"
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

// fig9Budget returns the policy-study budget.
func (p Params) fig9Budget() uint64 {
	if p.Fig9Cycles > 0 {
		return p.Fig9Cycles
	}
	return 3 * p.SharedCycles
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

func (p Params) evalOptions() workload.Options {
	return workload.Options{
		Cfg:             p.Cfg,
		SharedCycles:    p.SharedCycles,
		Seed:            p.Seed,
		WarmupIntervals: p.Warmup,
		Estimators:      []core.Estimator{core.New(core.Options{})},
		// MISE and ASM are evaluated on their own priority-epoch system.
		EpochEstimators: []core.Estimator{baseline.NewMISE(), baseline.NewASM()},
	}
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

// Markdown renders the table as GitHub-flavoured markdown (used when
// exporting results into EXPERIMENTS.md-style documents).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		cells := make([]string, len(t.Columns))
		copy(cells, r)
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
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

func accuracy(opt workload.Options, jobs []workload.Job, cache workload.Baseline) (*AccuracyResult, error) {
	evals, err := workload.EvaluateAll(opt, jobs, cache)
	if err != nil {
		return nil, err
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
	return res, nil
}

// Fig5 evaluates all two-application workloads with the even SM split and
// compares DASE/MISE/ASM estimation error (paper Fig. 5).
func Fig5(p Params, cache workload.Baseline) (*AccuracyResult, error) {
	opt := p.evalOptions()
	combos := workload.AllPairs()
	jobs := make([]workload.Job, len(combos))
	for i, c := range combos {
		jobs[i] = workload.Job{Combo: c, Alloc: evenAlloc(p.Cfg.NumSMs, 2)}
	}
	return accuracy(opt, jobs, cache)
}

// Fig6 evaluates the random four-application workloads (paper Fig. 6).
func Fig6(p Params, cache workload.Baseline) (*AccuracyResult, error) {
	opt := p.evalOptions()
	combos := workload.RandomQuads(p.QuadCount, p.Seed)
	jobs := make([]workload.Job, len(combos))
	for i, c := range combos {
		jobs[i] = workload.Job{Combo: c, Alloc: evenAlloc(p.Cfg.NumSMs, 4)}
	}
	return accuracy(opt, jobs, cache)
}

// Render returns the accuracy result as a table (one row per workload plus
// the average, the number the paper quotes).
func (r *AccuracyResult) Render(title string) *Table {
	t := &Table{Title: title, Columns: append([]string{"workload"}, EstimatorNames...)}
	for _, ev := range r.Evals {
		row := []string{ev.Combo.Name()}
		for _, name := range EstimatorNames {
			row = append(row, pct(mean(ev.Errors[name])))
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func evenAlloc(n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = n / k
	}
	rem := n % k
	for i := 0; i < rem; i++ {
		out[i]++
	}
	return out
}

// Fig7Result is the error-distribution histogram of Fig. 7.
type Fig7Result struct {
	// Fractions[name] holds the share of estimates in each bucket:
	// <10%, 10-20%, 20-40%, 40-80%, >=80%.
	Fractions map[string][]float64
	Buckets   []string
}

// Fig7 builds the error distribution from the Fig. 5 and Fig. 6 samples.
func Fig7(two, four *AccuracyResult) *Fig7Result {
	labels := []string{"<10%", "10-20%", "20-40%", "40-80%", ">=80%"}
	out := &Fig7Result{Fractions: map[string][]float64{}, Buckets: labels}
	for _, name := range EstimatorNames {
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
	}
	return out
}

// Render returns the Fig. 7 histogram as a table.
func (r *Fig7Result) Render() *Table {
	t := &Table{Title: "Fig.7 — Distribution of slowdown estimation error", Columns: append([]string{"estimator"}, r.Buckets...)}
	names := make([]string, 0, len(r.Fractions))
	for n := range r.Fractions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		row := []string{n}
		for _, f := range r.Fractions[n] {
			row = append(row, pct(f))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
