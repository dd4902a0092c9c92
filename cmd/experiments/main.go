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
//	experiments -run ablation
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
		fmt.Fprintln(stdout, strings.Join(names(), "\n"))
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
	session := experiments.NewSession(p, cache)
	jsonOut := map[string]any{}
	for _, e := range experiments.List {
		if !want[e.Name] {
			continue
		}
		start := time.Now()
		data, tab, err := e.Run(session)
		if err != nil {
			return fmt.Errorf("experiment %s failed: %w", e.Name, err)
		}
		jsonOut[e.Name] = data
		fmt.Fprintf(stdout, "%s\n\n", tab)
		fmt.Fprintf(stderr, "[%s took %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
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

// names lists every experiment in print order.
func names() []string {
	out := make([]string, len(experiments.List))
	for i, e := range experiments.List {
		out[i] = e.Name
	}
	return out
}

// selectExperiments parses -run: "all", or a comma-separated subset of
// names(). An unknown name is an error, so a typo cannot pass for an empty
// run.
func selectExperiments(spec string) (map[string]bool, error) {
	all := names()
	want := map[string]bool{}
	for _, n := range strings.Split(spec, ",") {
		switch n = strings.TrimSpace(n); {
		case n == "":
		case n == "all":
			for _, o := range all {
				want[o] = true
			}
		case slices.Contains(all, n):
			want[n] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q (have all, %s)", n, strings.Join(all, ", "))
		}
	}
	return want, nil
}
