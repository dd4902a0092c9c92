// Command dasesim runs one multiprogrammed workload on the simulated GPU
// and reports per-application performance, actual slowdowns, estimator
// outputs and the DRAM bandwidth decomposition.
//
// Usage:
//
//	dasesim -apps SB,SD                     # even split, 300K cycles
//	dasesim -apps VA,CT -alloc 4,12
//	dasesim -apps SB,SD,CT,QR -policy fair  # DASE-Fair dynamic partitioning
//	dasesim -list                           # show the Table III kernels
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dasesim"
	"dasesim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "dasesim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dasesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appsFlag    = fs.String("apps", "SB,SD", "comma-separated kernel abbreviations")
		allocFlag   = fs.String("alloc", "", "comma-separated SM counts (default: even split)")
		cycles      = fs.Uint64("cycles", 300_000, "shared simulation cycles")
		seed        = fs.Uint64("seed", 1, "simulation seed")
		policy      = fs.String("policy", "even", "SM policy: even | fair")
		csvPath     = fs.String("csv", "", "write per-interval counters to this CSV file")
		seeds       = fs.Int("seeds", 1, "run this many seeds and report mean±spread of the slowdowns")
		configPath  = fs.String("config", "", "load the GPU configuration from this JSON file")
		kernelsPath = fs.String("kernels", "", "load custom kernel profiles from this JSON file")
		dumpConfig  = fs.String("dump-config", "", "write the active configuration as JSON and exit")
		list        = fs.Bool("list", false, "list available kernels and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := dasesim.DefaultConfig()
	if *configPath != "" {
		var err error
		if cfg, err = dasesim.LoadConfig(*configPath); err != nil {
			return err
		}
	}
	if *dumpConfig != "" {
		if err := dasesim.SaveConfig(cfg, *dumpConfig); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "configuration written to %s\n", *dumpConfig)
		return nil
	}

	catalogue := dasesim.Kernels()
	if *kernelsPath != "" {
		var err error
		if catalogue, err = dasesim.LoadKernels(*kernelsPath); err != nil {
			return err
		}
	}
	lookup := func(abbr string) (dasesim.KernelProfile, bool) {
		for _, p := range catalogue {
			if p.Abbr == abbr {
				return p, true
			}
		}
		return dasesim.KernelProfile{}, false
	}

	if *list {
		fmt.Fprintln(stdout, "available kernels:")
		for _, p := range catalogue {
			fmt.Fprintf(stdout, "  %-3s %-22s alone-BW(paper)=%2.0f%%\n", p.Abbr, p.Name, p.PaperBW*100)
		}
		return nil
	}

	var profiles []dasesim.KernelProfile
	for _, ab := range strings.Split(*appsFlag, ",") {
		p, ok := lookup(strings.TrimSpace(ab))
		if !ok {
			return fmt.Errorf("unknown kernel %q; try -list", ab)
		}
		profiles = append(profiles, p)
	}

	alloc := dasesim.EvenAllocation(cfg.NumSMs, len(profiles))
	if *allocFlag != "" {
		parts := strings.Split(*allocFlag, ",")
		if len(parts) != len(profiles) {
			return fmt.Errorf("-alloc needs %d values", len(profiles))
		}
		alloc = alloc[:0]
		for _, s := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad allocation %q: %w", s, err)
			}
			alloc = append(alloc, v)
		}
	}

	var pol dasesim.Policy = dasesim.EvenPolicy{}
	var fair *dasesim.DASEFairPolicy
	switch *policy {
	case "even":
	case "fair":
		fair = dasesim.NewDASEFair()
		pol = fair
	default:
		return fmt.Errorf("unknown policy %q (even | fair)", *policy)
	}

	if *seeds > 1 {
		return reportMultiSeed(stdout, cfg, profiles, alloc, *cycles, *seed, *seeds, *policy)
	}

	shared, err := dasesim.RunWithPolicy(cfg, profiles, alloc, *cycles, *seed, pol)
	if err != nil {
		return err
	}

	est := dasesim.AverageEstimates(dasesim.NewDASE(), shared.Snapshots, 1)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := trace.NewWriter(f).WriteAll(shared.Snapshots); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "interval trace written to %s\n", *csvPath)
	}

	fmt.Fprintf(stdout, "workload: %s, %d cycles, policy %s, initial allocation %v\n\n",
		*appsFlag, *cycles, *policy, alloc)
	fmt.Fprintln(stdout, "app  IPC(shared)  alpha  DRAM-req   BW-share  rowhit  mem-lat(p95)  DASE-est  alone-IPC  slowdown")
	var slowdowns []float64
	for i, a := range shared.Apps {
		alone, err := dasesim.RunAlone(cfg, profiles[i], *cycles, *seed)
		if err != nil {
			return err
		}
		slow := dasesim.Slowdown(alone.Apps[0].IPC, a.IPC)
		slowdowns = append(slowdowns, slow)
		fmt.Fprintf(stdout, "%-3s  %11.2f  %5.2f  %8d  %8.1f%%  %5.1f%%  %5.0f(%5d)  %8.2f  %9.2f  %8.2f\n",
			a.Abbr, a.IPC, a.Alpha, a.Served, a.BWUtil*100, a.RowHitRate*100,
			a.MeanLatency, a.P95Latency,
			est[i], alone.Apps[0].IPC, slow)
	}

	fmt.Fprintf(stdout, "\nDRAM bus: %.1f%% data, %.1f%% wasted (timing), %.1f%% idle\n",
		shared.BWUtilTotal()*100,
		float64(shared.BusWasted)/float64(shared.BusCycles)*100,
		float64(shared.BusIdle)/float64(shared.BusCycles)*100)
	fmt.Fprintf(stdout, "unfairness %.2f (ideal 1.00), harmonic speedup %.2f\n",
		dasesim.Unfairness(slowdowns), dasesim.HarmonicSpeedup(slowdowns))
	if fair != nil {
		final := shared.Snapshots[len(shared.Snapshots)-1]
		var parts []string
		for _, ai := range final.Apps {
			parts = append(parts, strconv.Itoa(ai.SMs))
		}
		fmt.Fprintf(stdout, "DASE-Fair: %d reallocations, final allocation %s\n",
			fair.Reallocations, strings.Join(parts, "+"))
	}
	return nil
}

// reportMultiSeed reruns the workload across several seeds and prints the
// mean and spread of each application's slowdown — simulation-methodology
// hygiene for checking that a conclusion is not a single-seed artefact.
func reportMultiSeed(w io.Writer, cfg dasesim.Config, profiles []dasesim.KernelProfile, alloc []int, cycles, seed uint64, n int, policy string) error {
	slow := make([][]float64, len(profiles))
	for s := uint64(0); s < uint64(n); s++ {
		var pol dasesim.Policy = dasesim.EvenPolicy{}
		if policy == "fair" {
			pol = dasesim.NewDASEFair()
		}
		shared, err := dasesim.RunWithPolicy(cfg, profiles, alloc, cycles, seed+s, pol)
		if err != nil {
			return err
		}
		for i := range profiles {
			alone, err := dasesim.RunAlone(cfg, profiles[i], cycles, seed+s)
			if err != nil {
				return err
			}
			slow[i] = append(slow[i], dasesim.Slowdown(alone.Apps[0].IPC, shared.Apps[i].IPC))
		}
	}
	fmt.Fprintf(w, "\nslowdowns over %d seeds (mean, min..max):\n", n)
	for i, p := range profiles {
		mean, min, max := 0.0, slow[i][0], slow[i][0]
		for _, v := range slow[i] {
			mean += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		mean /= float64(len(slow[i]))
		fmt.Fprintf(w, "  %-3s  %.3f  (%.3f..%.3f)\n", p.Abbr, mean, min, max)
	}
	return nil
}
