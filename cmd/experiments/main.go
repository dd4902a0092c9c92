// Command experiments regenerates the paper's tables and figures on the
// simulated GPU. Each experiment prints a text table with the measured
// numbers next to the paper's reference values where applicable. Tables go
// to stdout, which is deterministic for a given set of flags; the
// `[name took …]` timing lines go to stderr.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig5,fig9 -cycles 500000
//	experiments -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"dasesim/internal/experiments"
	"dasesim/internal/workload"
)

var order = []string{
	"tableII", "tableIII", "tableI",
	"fig2a", "fig2b", "fig3", "fig4",
	"fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9",
	"extA", "extB", "extC", "extD", "extE", "extF", "extG",
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runFlag    = fs.String("run", "all", "comma-separated experiments to run, or 'all'")
		cycles     = fs.Uint64("cycles", 0, "override shared-run cycle budget")
		pairSample = fs.Int("pairs", 0, "override sensitivity pair sample size")
		quads      = fs.Int("quads", 0, "override four-app workload count")
		seed       = fs.Uint64("seed", 0, "override random seed")
		jsonPath   = fs.String("json", "", "also write results as JSON to this file")
		cacheDir   = fs.String("cache-dir", "", "persist alone-run baselines under this directory, one file per content address (shared with dased -cache-dir)")
		list       = fs.Bool("list", false, "list available experiments")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(order, "\n"))
		return nil
	}
	want, err := selectExperiments(*runFlag)
	if err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	p := experiments.DefaultParams()
	if *cycles > 0 {
		p.SharedCycles = *cycles
	}
	if *pairSample > 0 {
		p.PairSample = *pairSample
	}
	if *quads > 0 {
		p.QuadCount = *quads
	}
	if *seed > 0 {
		p.Seed = *seed
	}

	cache, err := workload.OpenAloneCache(p.Cfg, p.SharedCycles, p.Seed, *cacheDir)
	if err != nil {
		return fmt.Errorf("cache dir: %w", err)
	}
	var fig5Res, fig6Res *experiments.AccuracyResult
	jsonOut := map[string]any{}
	record := func(name string, v any) { jsonOut[name] = v }

	for _, name := range order {
		if !want[name] {
			continue
		}
		start := time.Now()
		var err error
		switch name {
		case "tableII":
			tab := experiments.TableII(p)
			record(name, tab)
			fmt.Fprintln(stdout, tab)
		case "tableIII":
			var rows []experiments.TableIIIRow
			if rows, err = experiments.TableIII(p); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderTableIII(rows))
			}
		case "tableI":
			tab := experiments.TableI(p, 4)
			record(name, tab)
			fmt.Fprintln(stdout, tab)
		case "fig2a":
			var rows []experiments.Fig2Row
			if rows, err = experiments.Fig2a(p, cache); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderFig2a(rows))
			}
		case "fig2b":
			var rows []experiments.Fig2bRow
			if rows, err = experiments.Fig2b(p, cache); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderFig2b(rows))
			}
		case "fig3":
			var rows []experiments.Fig3Row
			var corr float64
			if rows, corr, err = experiments.Fig3(p); err == nil {
				record(name, map[string]any{"rows": rows, "correlation": corr})
				fmt.Fprintln(stdout, experiments.RenderFig3(rows, corr))
			}
		case "fig4":
			var rows []experiments.Fig4Row
			if rows, err = experiments.Fig4(p, cache); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderFig4(rows))
			}
		case "fig5":
			if fig5Res, err = experiments.Fig5(p, cache); err == nil {
				record(name, fig5Res.MeanError)
				fmt.Fprintln(stdout, fig5Res.Render("Fig.5 — Estimation error, two-application workloads"))
			}
		case "fig6":
			if fig6Res, err = experiments.Fig6(p, cache); err == nil {
				record(name, fig6Res.MeanError)
				fmt.Fprintln(stdout, fig6Res.Render("Fig.6 — Estimation error, four-application workloads"))
			}
		case "fig7":
			if fig5Res == nil {
				if fig5Res, err = experiments.Fig5(p, cache); err != nil {
					break
				}
			}
			if fig6Res == nil {
				if fig6Res, err = experiments.Fig6(p, cache); err != nil {
					break
				}
			}
			f7 := experiments.Fig7(fig5Res, fig6Res)
			record(name, f7)
			fmt.Fprintln(stdout, f7.Render())
		case "fig8a":
			var rows []experiments.SensitivityRow
			if rows, err = experiments.Fig8a(p, cache); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderSensitivity("Fig.8(a) — DASE error vs SM allocation", rows))
			}
		case "fig8b":
			var rows []experiments.SensitivityRow
			if rows, err = experiments.Fig8b(p, cache); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderSensitivity("Fig.8(b) — DASE error vs number of SMs", rows))
			}
		case "fig9":
			var res *experiments.Fig9Result
			if res, err = experiments.Fig9(p, cache); err == nil {
				record(name, res)
				fmt.Fprintln(stdout, experiments.RenderFig9(res))
			}
		case "extA":
			var rows []experiments.ExtSchedRow
			if rows, err = experiments.ExtSchedulers(p, cache); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderExtSchedulers(rows))
			}
		case "extB":
			var res *experiments.AccuracyResult
			if res, err = experiments.ExtEstimators(p, cache); err == nil {
				record(name, res.MeanError)
				fmt.Fprintln(stdout, experiments.RenderExtEstimators(res))
			}
		case "extC":
			var rows []experiments.SensitivityRow
			if rows, err = experiments.ExtIntervalSensitivity(p); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderSensitivity("Ext.C — DASE error vs estimation interval length", rows))
			}
		case "extD":
			var rows []experiments.SensitivityRow
			if rows, err = experiments.ExtRequestMaxFactor(p, cache); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderSensitivity("Ext.D — DASE error vs Requestmax factor (Eq. 20)", rows))
			}
		case "extE":
			var rows []experiments.SensitivityRow
			if rows, err = experiments.ExtLargeGPU(p); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderSensitivity("Ext.E — DASE accuracy across GPU configurations", rows))
			}
		case "extF":
			var res *experiments.Fig9Result
			if res, err = experiments.ExtQuadFairness(p, cache, 10); err == nil {
				record(name, res)
				tab := experiments.RenderFig9(res)
				tab.Title = "Ext.F — Unfairness and H.Speedup on four-application workloads"
				tab.Notes = []string{
					fmt.Sprintf("fairness improvement: %.1f%%", res.FairnessImprovement()*100),
					fmt.Sprintf("performance improvement: %.1f%%", res.PerformanceImprovement()*100),
					"extension beyond the paper: Fig. 9 evaluates pairs only",
				}
				fmt.Fprintln(stdout, tab)
			}
		case "extG":
			var rows []experiments.ExtTemporalRow
			if rows, err = experiments.ExtTemporal(p, cache); err == nil {
				record(name, rows)
				fmt.Fprintln(stdout, experiments.RenderExtTemporal(rows))
			}
		}
		if err != nil {
			return fmt.Errorf("experiment %s failed: %w", name, err)
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(jsonOut, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal results: %w", err)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "results written to %s\n", *jsonPath)
	}
	return nil
}

// selectExperiments parses -run: "all", or a comma-separated subset of
// order. An unknown name is an error, so a typo cannot pass for an empty run.
func selectExperiments(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(spec, ",") {
		switch n = strings.TrimSpace(n); {
		case n == "":
		case n == "all":
			for _, o := range order {
				want[o] = true
			}
		case slices.Contains(order, n):
			want[n] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q (have all, %s)", n, strings.Join(order, ", "))
		}
	}
	return want, nil
}
