package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"dasesim/internal/metrics"
)

// benchmarkFile is the root BENCHMARK.json: the contract that names this
// benchmark and fixes the bound by which each end-to-end metric may worsen.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict of one (workload, metric) pairing.
const (
	within     = "within"
	worse      = "worse"
	unresolved = "unresolved" // the runs' own spread is wider than the bound
	differs    = "differs"    // an exact-repeat quantity changed
)

// judge compares metric values a (base) and b (head) against bound. Both
// runs cut their phase into the same n segments of the same generated work,
// so the comparison is paired: worsePct is the median over segments of how
// much worse b is. spreadPct estimates the run-to-run spread of that median
// from the noise the two runs themselves show: the inter-quartile spread of
// the per-segment ratios, times 1.25/sqrt(n) — the factor by which the median
// of n independent values is steadier than one of them. A metric without
// segments (peak RSS) compares its single values and has no spread.
func judge(a, b metricValue, better string, bound float64) (verdict string, worsePct, spreadPct float64) {
	as, bs := a.Segments, b.Segments
	if len(as) == 0 || len(as) != len(bs) {
		as, bs = []float64{a.Value}, []float64{b.Value}
	}
	ratios := make([]float64, 0, len(as))
	for i := range as {
		if as[i] == 0 || bs[i] == 0 {
			continue
		}
		r := bs[i] / as[i] // > 1: b is larger
		if better == "higher" {
			r = as[i] / bs[i]
		}
		ratios = append(ratios, r) // > 1: b is worse
	}
	if len(ratios) == 0 {
		return unresolved, 0, 0
	}
	m := metrics.Median(ratios)
	q1, q3 := quartiles(ratios)
	worsePct = (m - 1) * 100
	spreadPct = 1.25 * (q3 - q1) / m / math.Sqrt(float64(len(ratios))) * 100
	switch {
	case spreadPct > bound*100:
		return unresolved, worsePct, spreadPct
	case worsePct > bound*100:
		return worse, worsePct, spreadPct
	}
	return within, worsePct, spreadPct
}

// compareCmd implements `bench compare a.json b.json`: per (workload,
// metric) the change from a to b against the bound in BENCHMARK.json;
// exact-repeat metrics and digests must be identical. It exits non-zero on
// any `worse` or `differs`.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: usage: bench compare a.json b.json (from the repository root)")
		return 2
	}
	var bf benchmarkFile
	var a, b suiteReport
	for _, in := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &bf}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(stderr, "bench: compare: %v\n", err)
			return 2
		}
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(stderr, "bench: compare: seed/seconds differ (%d/%g vs %d/%g): the reports measured different inputs\n",
			a.Seed, a.Seconds, b.Seed, b.Seconds)
		return 2
	}
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NProc != b.Env.NProc {
		fmt.Fprintf(stdout, "warning: different machines (%s x%d vs %s x%d); host-time deltas are not a same-box A/B\n",
			a.Env.CPUModel, a.Env.NProc, b.Env.CPUModel, b.Env.NProc)
	}
	bEntries := map[string]suiteEntry{}
	for _, e := range b.Workloads {
		bEntries[e.Name] = e
	}
	bad := 0
	count := map[string]int{}
	row := func(workload, metric, verdict, detail string) {
		count[verdict]++
		if verdict == worse || verdict == differs {
			bad++
		}
		fmt.Fprintf(stdout, "%-14s %-28s %-10s %s\n", workload, metric, verdict, detail)
	}
	for _, ea := range a.Workloads {
		eb, ok := bEntries[ea.Name]
		if !ok || ea.EndToEnd == nil || eb.EndToEnd == nil {
			row(ea.Name, "-", unresolved, "missing from one report")
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := ea.EndToEnd.Metrics[m.Name], eb.EndToEnd.Metrics[m.Name]
			v, worsePct, spreadPct := judge(va, vb, m.Better, m.Bound)
			row(ea.Name, m.Name, v, fmt.Sprintf("%.6g -> %.6g %s, %+.2f%% worse, spread %.2f%%, bound %.0f%%",
				va.Value, vb.Value, m.Unit, worsePct, spreadPct, m.Bound*100))
		}
		exact(row, ea.Name, "digest ", ea.EndToEnd.Digests, eb.EndToEnd.Digests)
		if ea.Layers == nil || eb.Layers == nil {
			continue
		}
		exact(row, ea.Name, "layers digest ", ea.Layers.Digests, eb.Layers.Digests)
		for _, s := range perLayer {
			va, okA := ea.Layers.Metrics[s.Name]
			vb, okB := eb.Layers.Metrics[s.Name]
			if !s.Exact || (!okA && !okB) {
				continue
			}
			v := within
			if va.Value != vb.Value {
				v = differs
			}
			row(ea.Name, s.Name, v, fmt.Sprintf("%.17g -> %.17g %s (exact)", va.Value, vb.Value, s.Unit))
		}
	}
	fmt.Fprintf(stdout, "%d within, %d unresolved, %d worse, %d differ\n",
		count[within], count[unresolved], count[worse], count[differs])
	if bad > 0 {
		return 1
	}
	return 0
}

// exact reports one row per digest key of a, which b must reproduce.
func exact(row func(workload, metric, verdict, detail string), workload, prefix string, a, b map[string]string) {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := within
		if a[k] != b[k] {
			v = differs
		}
		row(workload, prefix+k, v, fmt.Sprintf("%.12s -> %.12s (exact)", a[k], b[k]))
	}
}
