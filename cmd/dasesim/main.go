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
	"log"
	"os"
	"strconv"
	"strings"

	"dasesim"
	"dasesim/internal/trace"
)

func main() {
	appsFlag := flag.String("apps", "SB,SD", "comma-separated kernel abbreviations")
	allocFlag := flag.String("alloc", "", "comma-separated SM counts (default: even split)")
	cycles := flag.Uint64("cycles", 300_000, "shared simulation cycles")
	seed := flag.Uint64("seed", 1, "simulation seed")
	policy := flag.String("policy", "even", "SM policy: even | fair")
	csvPath := flag.String("csv", "", "write per-interval counters to this CSV file")
	seeds := flag.Int("seeds", 1, "run this many seeds and report mean±spread of the slowdowns")
	configPath := flag.String("config", "", "load the GPU configuration from this JSON file")
	kernelsPath := flag.String("kernels", "", "load custom kernel profiles from this JSON file")
	dumpConfig := flag.String("dump-config", "", "write the active configuration as JSON and exit")
	list := flag.Bool("list", false, "list available kernels and exit")
	flag.Parse()

	cfg := dasesim.DefaultConfig()
	if *configPath != "" {
		var err error
		cfg, err = dasesim.LoadConfig(*configPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *dumpConfig != "" {
		if err := dasesim.SaveConfig(cfg, *dumpConfig); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("configuration written to %s\n", *dumpConfig)
		return
	}

	catalogue := dasesim.Kernels()
	if *kernelsPath != "" {
		var err error
		catalogue, err = dasesim.LoadKernels(*kernelsPath)
		if err != nil {
			log.Fatal(err)
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
		fmt.Println("available kernels:")
		for _, p := range catalogue {
			fmt.Printf("  %-3s %-22s alone-BW(paper)=%2.0f%%\n", p.Abbr, p.Name, p.PaperBW*100)
		}
		return
	}

	var profiles []dasesim.KernelProfile
	for _, ab := range strings.Split(*appsFlag, ",") {
		p, ok := lookup(strings.TrimSpace(ab))
		if !ok {
			log.Fatalf("unknown kernel %q; try -list", ab)
		}
		profiles = append(profiles, p)
	}
	if len(profiles) < 1 {
		log.Fatal("need at least one kernel")
	}

	alloc := dasesim.EvenAllocation(cfg.NumSMs, len(profiles))
	if *allocFlag != "" {
		parts := strings.Split(*allocFlag, ",")
		if len(parts) != len(profiles) {
			log.Fatalf("-alloc needs %d values", len(profiles))
		}
		alloc = alloc[:0]
		for _, s := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				log.Fatalf("bad allocation %q: %v", s, err)
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
		log.Fatalf("unknown policy %q (even | fair)", *policy)
	}

	if *seeds > 1 {
		reportMultiSeed(cfg, profiles, alloc, *cycles, *seed, *seeds, *policy)
		return
	}

	shared, err := dasesim.RunWithPolicy(cfg, profiles, alloc, *cycles, *seed, pol)
	if err != nil {
		log.Fatal(err)
	}

	est := dasesim.AverageEstimates(dasesim.NewDASE(), shared.Snapshots, 1)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.NewWriter(f).WriteAll(shared.Snapshots); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("interval trace written to %s\n", *csvPath)
	}

	fmt.Printf("workload: %s, %d cycles, policy %s, initial allocation %v\n\n",
		*appsFlag, *cycles, *policy, alloc)
	fmt.Println("app  IPC(shared)  alpha  DRAM-req   BW-share  rowhit  mem-lat(p95)  DASE-est  alone-IPC  slowdown")
	var slowdowns []float64
	for i, a := range shared.Apps {
		alone, err := dasesim.RunAlone(cfg, profiles[i], *cycles, *seed)
		if err != nil {
			log.Fatal(err)
		}
		slow := dasesim.Slowdown(alone.Apps[0].IPC, a.IPC)
		slowdowns = append(slowdowns, slow)
		fmt.Printf("%-3s  %11.2f  %5.2f  %8d  %8.1f%%  %5.1f%%  %5.0f(%5d)  %8.2f  %9.2f  %8.2f\n",
			a.Abbr, a.IPC, a.Alpha, a.Served, a.BWUtil*100, a.RowHitRate*100,
			a.MeanLatency, a.P95Latency,
			est[i], alone.Apps[0].IPC, slow)
	}

	fmt.Printf("\nDRAM bus: %.1f%% data, %.1f%% wasted (timing), %.1f%% idle\n",
		shared.BWUtilTotal()*100,
		float64(shared.BusWasted)/float64(shared.BusCycles)*100,
		float64(shared.BusIdle)/float64(shared.BusCycles)*100)
	fmt.Printf("unfairness %.2f (ideal 1.00), harmonic speedup %.2f\n",
		dasesim.Unfairness(slowdowns), dasesim.HarmonicSpeedup(slowdowns))
	if fair != nil {
		final := shared.Snapshots[len(shared.Snapshots)-1]
		var parts []string
		for _, ai := range final.Apps {
			parts = append(parts, strconv.Itoa(ai.SMs))
		}
		fmt.Printf("DASE-Fair: %d reallocations, final allocation %s\n",
			fair.Reallocations, strings.Join(parts, "+"))
	}
}

// reportMultiSeed reruns the workload across several seeds and prints the
// mean and spread of each application's slowdown — simulation-methodology
// hygiene for checking that a conclusion is not a single-seed artefact.
func reportMultiSeed(cfg dasesim.Config, profiles []dasesim.KernelProfile, alloc []int, cycles, seed uint64, n int, policy string) {
	slow := make([][]float64, len(profiles))
	for s := uint64(0); s < uint64(n); s++ {
		var pol dasesim.Policy = dasesim.EvenPolicy{}
		if policy == "fair" {
			pol = dasesim.NewDASEFair()
		}
		shared, err := dasesim.RunWithPolicy(cfg, profiles, alloc, cycles, seed+s, pol)
		if err != nil {
			log.Fatal(err)
		}
		for i := range profiles {
			alone, err := dasesim.RunAlone(cfg, profiles[i], cycles, seed+s)
			if err != nil {
				log.Fatal(err)
			}
			slow[i] = append(slow[i], dasesim.Slowdown(alone.Apps[0].IPC, shared.Apps[i].IPC))
		}
	}
	fmt.Printf("\nslowdowns over %d seeds (mean, min..max):\n", n)
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
		fmt.Printf("  %-3s  %.3f  (%.3f..%.3f)\n", p.Abbr, mean, min, max)
	}
}
