// Command fleetsim replays a multi-tenant job trace against a simulated GPU
// fleet and reports the allocation history and fairness digest of the
// time-aware fair-share scheduler (internal/fleet). Arrivals come from a
// deterministic Poisson generator or a CSV trace; runs are seeded and fully
// deterministic — a fixed seed produces byte-identical CSV output across
// processes.
//
// Usage:
//
//	fleetsim -gpus 4 -intervals 12 -seed 42 -out alloc.csv
//	fleetsim -engine sim -golden -out golden.csv
//	fleetsim -trace-in arrivals.csv -trace events.ndjson
//
// The arrival CSV format is one job per line:
//
//	interval,tenant,job_id,kernel_abbr,min_sms,work
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dasesim/internal/config"
	"dasesim/internal/fleet"
	"dasesim/internal/kernels"
	"dasesim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gpus        = fs.Int("gpus", 4, "number of identical GPUs in the fleet")
		tenantsFlag = fs.String("tenants", "astra:24:1,borei:16:1,ceres:8:2", "tenant specs as name:quota_sms:weight,...")
		intervals   = fs.Int("intervals", 12, "scheduling intervals to simulate")
		seed        = fs.Uint64("seed", 42, "seed for arrivals and the cycle engine")
		engine      = fs.String("engine", "model", "ground-truth engine: model (closed-form) or sim (cycle engine)")
		window      = fs.Int("window", 8, "allocation-history window in intervals")
		maxJobs     = fs.Int("max-jobs", 4, "max concurrent jobs per GPU")
		cycles      = fs.Uint64("interval-cycles", 20_000, "GPU cycles per scheduling interval")
		rates       = fs.String("rates", "1.2,0.8,0.5", "Poisson arrival rates (jobs/interval), one per tenant")
		kernelsFlag = fs.String("kernels", "BS,CT,QR,SP,SC,NN", "Table III kernel abbreviations jobs cycle through")
		maxMinSMs   = fs.Int("job-max-sms", 8, "max per-job SM demand drawn by the Poisson generator")
		work        = fs.Uint64("work", 60_000, "per-job warp-instruction budget for generated jobs")
		traceIn     = fs.String("trace-in", "", "replay arrivals from this CSV instead of generating them")
		out         = fs.String("out", "-", "allocation-history CSV destination (- for stdout)")
		tracePath   = fs.String("trace", "", "write NDJSON fleet telemetry to this file")
		golden      = fs.Bool("golden", false, "run the pinned determinism-golden scenario, ignoring scenario flags")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sc fleet.Scenario
	if *golden {
		sc = fleet.GoldenScenario()
	} else {
		tenants, err := parseTenants(*tenantsFlag)
		if err != nil {
			return err
		}
		sc = fleet.Scenario{
			Config: fleet.Config{
				GPUs:            *gpus,
				GPU:             config.Default(),
				Tenants:         tenants,
				WindowIntervals: *window,
				MaxJobsPerGPU:   *maxJobs,
				IntervalCycles:  *cycles,
				Seed:            *seed,
			},
			Intervals: *intervals,
		}
		if *traceIn != "" {
			f, err := os.Open(*traceIn)
			if err != nil {
				return err
			}
			sc.Arrivals, err = parseArrivalCSV(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", *traceIn, err)
			}
		} else {
			rt, err := parseRates(*rates, len(tenants))
			if err != nil {
				return err
			}
			profiles, err := parseKernels(*kernelsFlag)
			if err != nil {
				return err
			}
			sc.Arrivals = fleet.PoissonArrivals(*seed, tenants, rt, profiles, *intervals, *maxMinSMs, *work)
		}
	}

	switch *engine {
	case "model":
		if !*golden {
			sc.Config.Engine = &fleet.ModelEngine{Cfg: sc.Config.GPU}
		}
	case "sim":
		sc.Config.Engine = &fleet.SimEngine{Cfg: sc.Config.GPU}
	default:
		return fmt.Errorf("unknown engine %q (want model or sim)", *engine)
	}

	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tracer = telemetry.New(0)
		sc.Config.Tracer = tracer
	}

	f, err := sc.Run()
	if err != nil {
		return err
	}
	rec := f.Records()

	var csvDst io.Writer = stdout
	if *out != "-" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		csvDst = of
	}
	if err := fleet.WriteCSV(csvDst, rec); err != nil {
		return err
	}

	if tracer != nil {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := telemetry.WriteNDJSON(tf, tracer.Events()); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
	}

	printSummary(stderr, fleet.Summarize(rec, f.Capacity()))
	return nil
}

// printSummary writes the run-level fairness digest to the diagnostic
// stream, keeping stdout clean for the CSV.
func printSummary(w io.Writer, s Summary) {
	fmt.Fprintf(w, "fleet: %d intervals, %d SMs, idle %d SM-intervals, Jain fairness %.4f\n",
		s.Intervals, s.Capacity, s.IdleSMs, s.JainIndex)
	for _, t := range s.Tenants {
		fmt.Fprintf(w, "  %-12s quota %3d  mean deserved %7.2f  allocated %6d SM-intervals  max debt %6.2f  mean slowdown %.3f\n",
			t.Name, t.QuotaSMs, t.MeanDeserved, t.TotalSMs, t.MaxDebtSMs, t.MeanSlowdown)
	}
}

// Summary aliases the fleet digest so printSummary has a short signature.
type Summary = fleet.Summary

// parseTenants parses "name:quota:weight,..." tenant specs.
func parseTenants(s string) ([]fleet.TenantSpec, error) {
	var tenants []fleet.TenantSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("tenant %q: want name:quota_sms:weight", part)
		}
		quota, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("tenant %q: bad quota: %w", part, err)
		}
		weight, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: bad weight: %w", part, err)
		}
		tenants = append(tenants, fleet.TenantSpec{Name: fields[0], QuotaSMs: quota, Weight: weight})
	}
	return tenants, nil
}

// parseRates parses the comma-separated per-tenant arrival rates.
func parseRates(s string, nTenants int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != nTenants {
		return nil, fmt.Errorf("got %d rates for %d tenants", len(parts), nTenants)
	}
	rates := make([]float64, len(parts))
	for i, p := range parts {
		r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("rate %q: %w", p, err)
		}
		rates[i] = r
	}
	return rates, nil
}

// parseKernels resolves comma-separated Table III abbreviations.
func parseKernels(s string) ([]kernels.Profile, error) {
	var profiles []kernels.Profile
	for _, abbr := range strings.Split(s, ",") {
		abbr = strings.TrimSpace(abbr)
		p, ok := kernels.ByAbbr(abbr)
		if !ok {
			return nil, fmt.Errorf("unknown Table III kernel %q (known: %s)", abbr, strings.Join(kernels.Names(), ","))
		}
		profiles = append(profiles, p)
	}
	return profiles, nil
}

// parseArrivalCSV reads an arrival trace: one job per line as
// interval,tenant,job_id,kernel_abbr,min_sms,work. Blank lines and lines
// starting with '#' are skipped; intervals must be non-decreasing.
func parseArrivalCSV(r io.Reader) ([]fleet.Arrival, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var arrivals []fleet.Arrival
	last := 0
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 6 {
			return nil, fmt.Errorf("line %d: want interval,tenant,job_id,kernel_abbr,min_sms,work", ln+1)
		}
		iv, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad interval: %w", ln+1, err)
		}
		if iv < last {
			return nil, fmt.Errorf("line %d: intervals must be non-decreasing", ln+1)
		}
		last = iv
		kp, ok := kernels.ByAbbr(fields[3])
		if !ok {
			return nil, fmt.Errorf("line %d: unknown kernel %q", ln+1, fields[3])
		}
		minSMs, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad min_sms: %w", ln+1, err)
		}
		work, err := strconv.ParseUint(fields[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad work: %w", ln+1, err)
		}
		arrivals = append(arrivals, fleet.Arrival{
			Interval: iv,
			Job: fleet.JobSpec{
				ID: fields[2], Tenant: fields[1], Kernel: kp,
				MinSMs: minSMs, Work: work,
			},
		})
	}
	return arrivals, nil
}
