package dasesim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"

	"dasesim/internal/baseline"
	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/estimate"
	"dasesim/internal/fleet"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/server"
	"dasesim/internal/sim"
)

// The examples below are the paper's demos, each at a reduced cycle budget
// so the whole set runs in a few seconds. The engine is deterministic, so
// their output is exact.

// profiles looks up Table III workloads by abbreviation.
func profiles(abbrs ...string) []kernels.Profile {
	out := make([]kernels.Profile, len(abbrs))
	for i, abbr := range abbrs {
		p, ok := kernels.ByAbbr(abbr)
		if !ok {
			panic("unknown kernel " + abbr)
		}
		out[i] = p
	}
	return out
}

// must unwraps a call's result; the examples' inputs are fixed, so an error
// is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// aloneIPCs runs each kernel alone on the whole GPU and returns its IPC.
func aloneIPCs(cfg config.Config, apps []kernels.Profile, cycles uint64) []float64 {
	out := make([]float64, len(apps))
	for i, p := range apps {
		out[i] = must(sim.RunAlone(cfg, p, cycles, 1)).Apps[0].IPC
	}
	return out
}

// Example_quickstart runs two kernels concurrently on the simulated GPU,
// measures their actual slowdowns against alone runs (Eq. 1), and compares
// them with DASE's run-time estimates. Unfairness is Eq. 2 and harmonic
// speedup Eq. 27.
func Example_quickstart() {
	cfg := config.Default()
	const cycles = 100_000
	apps := profiles("SB", "SD")

	// Shared run: even SM split (8+8 of 16); alone runs use all 16 SMs.
	shared := must(sim.RunShared(cfg, apps, sim.EvenAllocation(cfg.NumSMs, 2), cycles, 1))
	aloneIPC := aloneIPCs(cfg, apps, cycles)

	// DASE's run-time estimates, averaged over the run's intervals.
	est := core.AverageEstimates(core.New(core.Options{}), shared.Snapshots, 1)

	fmt.Println("app  IPC(alone)  IPC(shared)  slowdown  DASE estimate  error")
	var slowdowns []float64
	for i, a := range shared.Apps {
		actual := metrics.Slowdown(aloneIPC[i], a.IPC)
		slowdowns = append(slowdowns, actual)
		fmt.Printf("%-3s  %10.2f  %11.2f  %8.2f  %13.2f  %5.1f%%\n",
			a.Abbr, aloneIPC[i], a.IPC, actual, est[i],
			metrics.Error(est[i], actual)*100)
	}
	fmt.Printf("unfairness = %.2f (ideal 1.00), harmonic speedup = %.2f\n",
		metrics.Unfairness(slowdowns), metrics.HarmonicSpeedup(slowdowns))
	// Output:
	// app  IPC(alone)  IPC(shared)  slowdown  DASE estimate  error
	// SB         7.05         3.31      2.13           1.97    7.5%
	// SD         8.20         4.37      1.88           1.86    0.7%
	// unfairness = 1.14 (ideal 1.00), harmonic speedup = 0.50
}

// Example_bwdecomp is the paper's motivation analysis (Fig. 2) for the SA+SD
// pair: it decomposes the DRAM data-bus bandwidth into per-application
// shares, timing-constraint waste and idle time, and shows how the victim's
// share changes relative to running alone.
func Example_bwdecomp() {
	cfg := config.Default()
	const cycles = 50_000
	apps := profiles("SA", "SD")
	a, b := apps[0], apps[1]

	shared := must(sim.RunShared(cfg, apps, sim.EvenAllocation(cfg.NumSMs, 2), cycles, 1))
	aAlone := must(sim.RunAlone(cfg, a, cycles, 1)).Apps[0]
	bAlone := must(sim.RunAlone(cfg, b, cycles, 1)).Apps[0]

	fmt.Printf("DRAM bandwidth decomposition, %s+%s shared (even split):\n", a.Abbr, b.Abbr)
	fmt.Printf("  %-3s data   %5.1f%%   (alone: %5.1f%%)\n", a.Abbr, shared.Apps[0].BWUtil*100, aAlone.BWUtil*100)
	fmt.Printf("  %-3s data   %5.1f%%   (alone: %5.1f%%)\n", b.Abbr, shared.Apps[1].BWUtil*100, bAlone.BWUtil*100)
	fmt.Printf("  wasted-BW  %5.1f%%   (DRAM timing constraints, no data moving)\n",
		float64(shared.BusWasted)/float64(shared.BusCycles)*100)
	fmt.Printf("  idle-BW    %5.1f%%\n", float64(shared.BusIdle)/float64(shared.BusCycles)*100)

	share := shared.Apps[1].BWUtil / bAlone.BWUtil
	slow := metrics.Slowdown(bAlone.IPC, shared.Apps[1].IPC)
	if share < 1 {
		fmt.Printf("%s keeps only %.1f%% of its alone bandwidth; its measured slowdown is %.2fx\n",
			b.Abbr, share*100, slow)
		fmt.Printf("(the paper's observation: the inverse bandwidth ratio 1/%.3f = %.2f tracks the slowdown)\n",
			share, 1/share)
	} else {
		// The co-runner evicted the victim's working set from the shared
		// L2, so the extra traffic is contention misses.
		fmt.Printf("%s draws %.2fx MORE DRAM bandwidth than alone yet still slows down %.2fx\n",
			b.Abbr, share, slow)
	}
	fmt.Printf("row-hit rate %s %.1f%% shared vs %.1f%% alone, %s %.1f%% shared vs %.1f%% alone\n",
		a.Abbr, shared.Apps[0].RowHitRate*100, aAlone.RowHitRate*100,
		b.Abbr, shared.Apps[1].RowHitRate*100, bAlone.RowHitRate*100)
	// Output:
	// DRAM bandwidth decomposition, SA+SD shared (even split):
	//   SA  data    28.6%   (alone:  62.1%)
	//   SD  data    21.2%   (alone:  39.4%)
	//   wasted-BW   48.3%   (DRAM timing constraints, no data moving)
	//   idle-BW      1.9%
	// SD keeps only 53.7% of its alone bandwidth; its measured slowdown is 1.87x
	// (the paper's observation: the inverse bandwidth ratio 1/0.537 = 1.86 tracks the slowdown)
	// row-hit rate SA 37.6% shared vs 37.5% alone, SD 0.3% shared vs 0.5% alone
}

// Example_slowdown compares the three run-time slowdown estimators (DASE,
// MISE, ASM) on a four-application mix — the scenario of the paper's Fig. 6,
// where the CPU-born models fall apart because no application can be
// credited for the SMs it would have alone.
//
// Each estimator is evaluated on the system it is designed for: DASE reads
// passive counters from a plain FR-FCFS run; MISE/ASM need the rotating
// highest-priority memory-controller epochs, so they read a second run with
// epochs enabled and are judged against that run's actual slowdowns.
func Example_slowdown() {
	cfg := config.Default()
	const cycles = 75_000
	apps := profiles("SB", "SD", "CT", "QR")
	alloc := sim.EvenAllocation(cfg.NumSMs, 4)

	plain := must(sim.RunShared(cfg, apps, alloc, cycles, 1))
	epochs := must(sim.RunShared(cfg, apps, alloc, cycles, 1, sim.WithPriorityEpochs()))
	aloneIPC := aloneIPCs(cfg, apps, cycles)

	cases := []struct {
		name string
		est  core.Estimator
		run  *sim.Result
	}{
		{"DASE", core.New(core.Options{}), plain},
		{"MISE", baseline.NewMISE(), epochs},
		{"ASM", baseline.NewASM(), epochs},
	}
	fmt.Println("estimator  mean |error|  per app (estimate / actual)")
	for _, c := range cases {
		est := core.AverageEstimates(c.est, c.run.Snapshots, 1)
		var sum float64
		var perApp []string
		for i, v := range est {
			actual := metrics.Slowdown(aloneIPC[i], c.run.Apps[i].IPC)
			sum += metrics.Error(v, actual)
			perApp = append(perApp, fmt.Sprintf("%s %.2f/%.2f", c.run.Apps[i].Abbr, v, actual))
		}
		fmt.Printf("%-9s  %11.1f%%  %s\n", c.name, sum/float64(len(est))*100, strings.Join(perApp, "  "))
	}
	// Output:
	// estimator  mean |error|  per app (estimate / actual)
	// DASE               2.8%  SB 2.69/2.73  SD 2.28/2.32  CT 4.30/4.67  QR 4.00/4.01
	// MISE              61.4%  SB 1.49/2.68  SD 1.47/2.32  CT 1.00/8.08  QR 1.00/4.28
	// ASM               61.4%  SB 1.49/2.68  SD 1.47/2.32  CT 1.00/8.08  QR 1.00/4.28
}

// Example_fairsched is the paper's Fig. 9 in miniature: the DASE-Fair SM
// partition policy fixes an unfair mix — a streaming kernel co-running with
// a cache-sensitive one — compared with the static even split. LEFTOVER,
// the policy of current GPUs, gives the second kernel no SMs at all.
//
// A re-partition takes effect only once the moved SMs drain their running
// thread blocks (paper §7), which takes longer than this example's budget.
// So a short live run finds the partition DASE-Fair settles on, and the
// comparison runs that partition from cycle 0.
func Example_fairsched() {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000 // short intervals: the policy settles early
	const cycles = 60_000
	apps := profiles("VA", "CT") // bandwidth-hungry streamer, cache-sensitive victim
	aloneIPC := aloneIPCs(cfg, apps, cycles)

	live := must(sched.Run(context.Background(), cfg, apps, []int{8, 8}, 40_000, 1, sched.NewDASEFair()))
	settled := smsOf(live)

	fmt.Println("policy     alloc  VA slow  CT slow  unfairness  h.speedup")
	for _, c := range []struct {
		policy string
		alloc  []int
	}{{"even", []int{8, 8}}, {"DASE-Fair", settled}} {
		res := must(sim.RunShared(cfg, apps, c.alloc, cycles, 1))
		s := slowdowns(aloneIPC, res)
		fmt.Printf("%-9s  %2d+%-2d  %7.2f  %7.2f  %10.2f  %9.2f\n", c.policy, c.alloc[0], c.alloc[1],
			s[0], s[1], metrics.Unfairness(s), metrics.HarmonicSpeedup(s))
	}

	// Both kernels have thousands of thread blocks, so the first takes all
	// 16 SMs; LEFTOVER splits only when the first kernel is small (SN).
	fmt.Println("leftover VA+CT:", sched.LeftoverAllocation(cfg, apps))
	fmt.Println("leftover SN+VA:", sched.LeftoverAllocation(cfg, profiles("SN", "VA")))
	// Output:
	// policy     alloc  VA slow  CT slow  unfairness  h.speedup
	// even        8+8      1.29     2.22        1.71       0.57
	// DASE-Fair   5+11     1.43     1.47        1.03       0.69
	// leftover VA+CT: [16 0]
	// leftover SN+VA: [4 12]
}

// smsOf returns the SM partition in force at the end of a run.
func smsOf(res *sim.Result) []int {
	final := res.Snapshots[len(res.Snapshots)-1]
	out := make([]int, len(final.Apps))
	for i, a := range final.Apps {
		out[i] = a.SMs
	}
	return out
}

// slowdowns returns each application's actual slowdown (Eq. 1) in a shared
// run against its alone IPC.
func slowdowns(aloneIPC []float64, shared *sim.Result) []float64 {
	out := make([]float64, len(shared.Apps))
	for i, a := range shared.Apps {
		out[i] = metrics.Slowdown(aloneIPC[i], a.IPC)
	}
	return out
}

// Example_estimate serves DASE online over HTTP: counters in, slowdowns and
// a recommended SM partition out, no simulation in the serving loop. It
// starts the daemon's handler in-process (in production, `dased -addr
// :8844`), takes per-interval counter snapshots from a short SB+SD shared
// run, and POSTs them to /v1/estimate — one single-shot request, then one
// array batch.
func Example_estimate() {
	cfg := config.Default()
	srv := must(server.New(server.Options{
		Cfg:    cfg,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res := must(sim.RunShared(cfg, profiles("SB", "SD"), sim.EvenAllocation(cfg.NumSMs, 2), 100_000, 1))
	var bodies [][]byte
	for i := range res.Snapshots {
		req := estimate.FromSnapshot(&res.Snapshots[i])
		bodies = append(bodies, estimate.AppendRequest(nil, &req))
	}

	// The wire shape of one estimate answer, reduced to what is printed.
	type answer struct {
		Apps []struct {
			Slowdown float64 `json:"slowdown"`
			Alpha    float64 `json:"alpha"`
			MBB      bool    `json:"mbb"`
		} `json:"apps"`
		Partition           []int   `json:"partition"`
		Unfairness          float64 `json:"unfairness"`
		PartitionUnfairness float64 `json:"partition_unfairness"`
	}
	post := func(body []byte, v any) {
		resp := must(http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body)))
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			panic(resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			panic(err)
		}
	}
	show := func(a answer) {
		for i, app := range a.Apps {
			fmt.Printf("  app %d: slowdown %.3f  alpha %.3f  mbb=%v\n", i, app.Slowdown, app.Alpha, app.MBB)
		}
		fmt.Printf("  unfairness %.3f -> recommended partition %v (unfairness %.3f)\n",
			a.Unfairness, a.Partition, a.PartitionUnfairness)
	}

	// Single-shot: one snapshot in, one estimate out.
	var single answer
	post(bodies[len(bodies)-1], &single)
	fmt.Println("single-shot (last interval):")
	show(single)

	// Batch: an array body answers per element, preserving order.
	var batch []answer
	post(append(append([]byte{'['}, bytes.Join(bodies, []byte{','})...), ']'), &batch)
	fmt.Printf("batch of %d intervals, first answer:\n", len(batch))
	show(batch[0])
	// Output:
	// single-shot (last interval):
	//   app 0: slowdown 1.972  alpha 0.807  mbb=false
	//   app 1: slowdown 1.863  alpha 0.744  mbb=false
	//   unfairness 1.058 -> recommended partition [8 8] (unfairness 1.058)
	// batch of 2 intervals, first answer:
	//   app 0: slowdown 2.228  alpha 0.780  mbb=false
	//   app 1: slowdown 1.745  alpha 0.710  mbb=false
	//   unfairness 1.277 -> recommended partition [9 7] (unfairness 1.032)
}

// Example_fleet shows the multi-tenant fair-share layer: two tenants with
// unequal quotas share a 2-GPU fleet, a zero-quota scavenger rides the idle
// capacity, and the time-aware scheduler keeps allocations proportional to
// deserved shares while DASE slowdown estimates steer job placement.
func Example_fleet() {
	gpu := config.Default()
	f := must(fleet.New(fleet.Config{
		GPUs: 2,
		GPU:  gpu,
		Tenants: []fleet.TenantSpec{
			{Name: "prod", QuotaSMs: 24, Weight: 1}, // deserves 3/4 of the fleet
			{Name: "batch", QuotaSMs: 8, Weight: 1}, // deserves 1/4
			{Name: "scav", QuotaSMs: 0, Weight: 0},  // idle capacity only
		},
		WindowIntervals: 6,
		Seed:            1,
	}))

	// prod submits bandwidth-hungry streamers, batch cache-sensitive
	// kernels, the scavenger tiny fillers.
	k := profiles("BS", "CT", "SC")
	bs, ct, sc := &k[0], &k[1], &k[2]
	for _, js := range []fleet.JobSpec{
		{ID: "prod-0", Tenant: "prod", Kernel: bs, MinSMs: 8, Work: 400_000},
		{ID: "prod-1", Tenant: "prod", Kernel: ct, MinSMs: 6, Work: 400_000},
		{ID: "prod-2", Tenant: "prod", Kernel: bs, MinSMs: 8, Work: 300_000},
		{ID: "batch-0", Tenant: "batch", Kernel: ct, MinSMs: 4, Work: 300_000},
		{ID: "batch-1", Tenant: "batch", Kernel: sc, MinSMs: 4, Work: 300_000},
		{ID: "scav-0", Tenant: "scav", Kernel: sc, MinSMs: 1, Work: 200_000},
		{ID: "scav-1", Tenant: "scav", Kernel: sc, MinSMs: 1, Work: 200_000},
	} {
		if err := f.Submit(js); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 12 && f.QueuedJobs()+f.RunningJobs() > 0; i++ {
		if err := f.Tick(); err != nil {
			panic(err)
		}
	}

	rec := f.Records()
	fmt.Println("interval  prod  batch  scav  idle")
	for _, r := range rec {
		alloc := map[string]int32{}
		for _, t := range r.Tenants {
			alloc[t.Name] = t.AllocatedSMs
		}
		fmt.Printf("%8d  %4d  %5d  %4d  %4d\n", r.Interval, alloc["prod"], alloc["batch"], alloc["scav"], r.IdleSMs)
	}
	s := fleet.Summarize(rec, f.Capacity())
	fmt.Printf("Jain fairness index over deserved shares: %.4f\n", s.JainIndex)
	for _, t := range s.Tenants {
		fmt.Printf("  %-6s quota %2d  allocated %4d SM-intervals  mean deserved %6.2f\n",
			t.Name, t.QuotaSMs, t.TotalSMs, t.MeanDeserved)
	}
	// Work conservation, quota safety and accounting hold at every interval.
	fmt.Println("invariants:", fleet.CheckAll(rec, f.Capacity(), gpu.NumSMs))
	// Output:
	// interval  prod  batch  scav  idle
	//        0    14      8    10     0
	//        1    14      8    10     0
	//        2    14      8    10     0
	//        3    22      8     2     0
	//        4    22      8     2     0
	//        5    22      8     2     0
	//        6     0     11     5    16
	// Jain fairness index over deserved shares: 0.9446
	//   prod   quota 24  allocated  108 SM-intervals  mean deserved  24.00
	//   batch  quota  8  allocated   59 SM-intervals  mean deserved   8.00
	//   scav   quota  0  allocated   41 SM-intervals  mean deserved   0.00
	// invariants: <nil>
}
