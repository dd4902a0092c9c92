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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
	"dasesim/internal/workload"
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
	if *cycles == 0 {
		return fmt.Errorf("-cycles must be positive")
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be positive, got %d", *seeds)
	}

	cfg := config.Default()
	if *configPath != "" {
		var err error
		if cfg, err = config.LoadFile(*configPath); err != nil {
			return err
		}
	}
	if *dumpConfig != "" {
		if err := cfg.SaveFile(*dumpConfig); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "configuration written to %s\n", *dumpConfig)
		return nil
	}

	catalogue := kernels.All()
	if *kernelsPath != "" {
		var err error
		if catalogue, err = kernels.LoadFile(*kernelsPath); err != nil {
			return err
		}
	}
	lookup := func(abbr string) (kernels.Profile, bool) {
		for _, p := range catalogue {
			if p.Abbr == abbr {
				return p, true
			}
		}
		return kernels.Profile{}, false
	}

	if *list {
		fmt.Fprintln(stdout, "available kernels:")
		for _, p := range catalogue {
			fmt.Fprintf(stdout, "  %-3s %-22s alone-BW(paper)=%2.0f%%\n", p.Abbr, p.Name, p.PaperBW*100)
		}
		return nil
	}

	var profiles []kernels.Profile
	for _, ab := range strings.Split(*appsFlag, ",") {
		p, ok := lookup(strings.TrimSpace(ab))
		if !ok {
			return fmt.Errorf("unknown kernel %q; try -list", ab)
		}
		profiles = append(profiles, p)
	}

	alloc := sim.EvenAllocation(cfg.NumSMs, len(profiles))
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

	if *policy != "even" && *policy != "fair" {
		return fmt.Errorf("unknown policy %q (even | fair)", *policy)
	}
	// Every run (and each -seeds run) is scored by workload.Evaluate: the
	// DASE estimator after one warm-up interval, against alone runs on every
	// SM kept in one in-memory store.
	store := simcache.NewMemory(0)
	evaluate := func(seed uint64) (*workload.Eval, *sched.DASEFair, error) {
		opt := workload.Options{
			Cfg: cfg, SharedCycles: *cycles, Seed: seed, WarmupIntervals: 1,
			Estimators: []core.Estimator{core.New(core.Options{})},
		}
		job := workload.Job{Combo: workload.Combo{Profiles: profiles}, Alloc: alloc}
		var fair *sched.DASEFair
		if *policy == "fair" {
			fair = sched.NewDASEFair()
			job.Policy = fair
		}
		ev, err := workload.Evaluate(context.Background(), opt, job, store)
		return ev, fair, err
	}

	if *seeds > 1 {
		if *csvPath != "" {
			return fmt.Errorf("-csv records one run's intervals; it cannot be combined with -seeds %d", *seeds)
		}
		evals := make([]*workload.Eval, *seeds)
		for s := range evals {
			ev, _, err := evaluate(*seed + uint64(s))
			if err != nil {
				return err
			}
			evals[s] = ev
		}
		reportMultiSeed(stdout, evals)
		return nil
	}

	ev, fair, err := evaluate(*seed)
	if err != nil {
		return err
	}
	shared, est := ev.Shared, ev.Estimates["DASE"]

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := writeCSV(f, shared.Snapshots); err != nil {
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
	for i, a := range shared.Apps {
		fmt.Fprintf(stdout, "%-3s  %11.2f  %5.2f  %8d  %8.1f%%  %5.1f%%  %5.0f(%5d)  %8.2f  %9.2f  %8.2f\n",
			a.Abbr, a.IPC, a.Alpha, a.Served, a.BWUtil*100, a.RowHitRate*100,
			a.MeanLatency, a.P95Latency,
			est[i], ev.AloneIPC[i], ev.Actual[i])
	}

	fmt.Fprintf(stdout, "\nDRAM bus: %.1f%% data, %.1f%% wasted (timing), %.1f%% idle\n",
		shared.BWUtilTotal()*100,
		float64(shared.BusWasted)/float64(shared.BusCycles)*100,
		float64(shared.BusIdle)/float64(shared.BusCycles)*100)
	fmt.Fprintf(stdout, "unfairness %.2f (ideal 1.00), harmonic speedup %.2f\n", ev.Unfairness, ev.HSpeedup)
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

// writeCSV writes one row per (interval, app): the snapshot's cycle,
// interval length and app, every sim.AppFields counter (floats to six
// significant digits), then the interval's DRAM bus decomposition.
func writeCSV(w io.Writer, snaps []sim.IntervalSnapshot) error {
	buf := []byte("cycle,interval_cycles,app")
	for _, f := range sim.AppFields {
		buf = append(append(buf, ','), f.Name...)
	}
	buf = append(buf, ",bus_cycles,bus_wasted,bus_idle\n"...)
	for i := range snaps {
		s := &snaps[i]
		for j := range s.Apps {
			a := &s.Apps[j]
			buf = strconv.AppendUint(buf, s.Cycle, 10)
			buf = strconv.AppendUint(append(buf, ','), s.IntervalCycles, 10)
			buf = strconv.AppendInt(append(buf, ','), int64(a.App), 10)
			for k := range sim.AppFields {
				buf = sim.AppFields[k].Append(append(buf, ','), a, 6)
			}
			for _, v := range []uint64{s.BusCycles, s.BusWasted, s.BusIdle} {
				buf = strconv.AppendUint(append(buf, ','), v, 10)
			}
			buf = append(buf, '\n')
		}
	}
	_, err := w.Write(buf)
	return err
}

// reportMultiSeed prints the mean and spread of each application's slowdown
// over one evaluation per seed — simulation-methodology hygiene for checking
// that a conclusion is not a single-seed artefact.
func reportMultiSeed(w io.Writer, evals []*workload.Eval) {
	fmt.Fprintf(w, "\nslowdowns over %d seeds (mean, min..max):\n", len(evals))
	for i, p := range evals[0].Combo.Profiles {
		mean, lo, hi := 0.0, evals[0].Actual[i], evals[0].Actual[i]
		for _, ev := range evals {
			v := ev.Actual[i]
			mean += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mean /= float64(len(evals))
		fmt.Fprintf(w, "  %-3s  %.3f  (%.3f..%.3f)\n", p.Abbr, mean, lo, hi)
	}
}
