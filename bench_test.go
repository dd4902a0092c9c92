package dasesim

// Benchmarks regenerating (at reduced cycle budgets) the measurement behind
// every table and figure of the paper, plus ablation benches for the design
// choices called out in DESIGN.md §5. Each benchmark reports its headline
// quantity as a custom metric so `go test -bench . -benchmem` doubles as a
// miniature reproduction run:
//
//	err%        mean slowdown-estimation error (Figs. 5-8)
//	unfairness  measured MAX/MIN slowdown (Figs. 2, 9)
//	bw%         attained DRAM bandwidth (Table III)
//	corr        service-rate/IPC correlation (Fig. 3)
//
// The full-budget reproduction lives in cmd/experiments. Layer benchmarks
// live beside their layer (BenchmarkDASEEstimate in internal/core,
// BenchmarkPartitionSearch in internal/sched, ...); engine speed end to end
// is `go run ./bench -workload sim-mem2`.

import (
	"context"
	"testing"

	"dasesim/internal/baseline"
	"dasesim/internal/core"
	"dasesim/internal/experiments"
	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/workload"
)

const benchCycles = 100_000

func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.SharedCycles = benchCycles
	p.PairSample = 4
	p.QuadCount = 2
	return p
}

func benchEvalOptions(ests ...core.Estimator) workload.Options {
	opt := workload.DefaultOptions(benchCycles)
	opt.Estimators = ests
	return opt
}

func benchPair(b *testing.B, ab1, ab2 string) workload.Combo {
	b.Helper()
	p1, ok := KernelByAbbr(ab1)
	if !ok {
		b.Fatalf("kernel %s missing", ab1)
	}
	p2, ok := KernelByAbbr(ab2)
	if !ok {
		b.Fatalf("kernel %s missing", ab2)
	}
	return workload.Combo{Profiles: []KernelProfile{p1, p2}}
}

// BenchmarkTableIII measures one representative kernel's alone bandwidth
// utilisation (full table: cmd/experiments -run tableIII).
func BenchmarkTableIII(b *testing.B) {
	sb, _ := KernelByAbbr("SB")
	var bw float64
	for i := 0; i < b.N; i++ {
		res, err := RunAlone(DefaultConfig(), sb, benchCycles, 1)
		if err != nil {
			b.Fatal(err)
		}
		bw = res.Apps[0].BWUtil
	}
	b.ReportMetric(bw*100, "bw%")
}

// BenchmarkFig2a measures the unfairness of one motivation pair.
func BenchmarkFig2a(b *testing.B) {
	combo := benchPair(b, "VA", "CT")
	cache := workload.NewAloneCache(DefaultConfig(), benchCycles, 1)
	var unf float64
	for i := 0; i < b.N; i++ {
		ev, err := workload.Evaluate(context.Background(), benchEvalOptions(), workload.Job{Combo: combo, Alloc: []int{8, 8}}, cache)
		if err != nil {
			b.Fatal(err)
		}
		unf = ev.Unfairness
	}
	b.ReportMetric(unf, "unfairness")
}

// BenchmarkFig2b measures the DRAM bandwidth decomposition run.
func BenchmarkFig2b(b *testing.B) {
	p := benchParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	var wasted float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2b(p, cache)
		if err != nil {
			b.Fatal(err)
		}
		wasted = rows[0].Wasted
	}
	b.ReportMetric(wasted*100, "wasted%")
}

// BenchmarkFig3 measures the performance-vs-service-rate sweep.
func BenchmarkFig3(b *testing.B) {
	p := benchParams()
	var corr float64
	for i := 0; i < b.N; i++ {
		var err error
		_, corr, err = experiments.Fig3(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(corr, "corr")
}

// BenchmarkFig4 measures the MBB alone-vs-shared-sum comparison.
func BenchmarkFig4(b *testing.B) {
	p := benchParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(p, cache)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].SharedSum / rows[0].AloneRate
	}
	b.ReportMetric(ratio, "sum/alone")
}

// benchAccuracy evaluates one pair with the three estimators and reports
// DASE's error.
func benchAccuracy(b *testing.B, alloc []int, combo workload.Combo) {
	b.Helper()
	opt := benchEvalOptions(core.New(core.Options{}))
	opt.EpochEstimators = []core.Estimator{baseline.NewMISE(), baseline.NewASM()}
	cache := workload.NewAloneCache(opt.Cfg, opt.SharedCycles, opt.Seed)
	var dase, mise float64
	for i := 0; i < b.N; i++ {
		ev, err := workload.Evaluate(context.Background(), opt, workload.Job{Combo: combo, Alloc: alloc}, cache)
		if err != nil {
			b.Fatal(err)
		}
		dase = metrics.Mean(ev.Errors["DASE"])
		mise = metrics.Mean(ev.Errors["MISE"])
	}
	b.ReportMetric(dase*100, "err%")
	b.ReportMetric(mise*100, "mise-err%")
}

// BenchmarkFig5 measures estimation accuracy on one two-app workload
// (full 105-pair sweep: cmd/experiments -run fig5).
func BenchmarkFig5(b *testing.B) {
	benchAccuracy(b, []int{8, 8}, benchPair(b, "SB", "SD"))
}

// BenchmarkFig6 measures estimation accuracy on one four-app workload.
func BenchmarkFig6(b *testing.B) {
	var ps []KernelProfile
	for _, ab := range []string{"SB", "SD", "CT", "QR"} {
		p, _ := KernelByAbbr(ab)
		ps = append(ps, p)
	}
	benchAccuracy(b, []int{4, 4, 4, 4}, workload.Combo{Profiles: ps})
}

// BenchmarkFig7 measures the error-distribution bucketing over a small
// sample.
func BenchmarkFig7(b *testing.B) {
	p := benchParams()
	cache := workload.NewAloneCache(p.Cfg, p.SharedCycles, p.Seed)
	opt := benchEvalOptions(core.New(core.Options{}))
	opt.EpochEstimators = []core.Estimator{baseline.NewMISE(), baseline.NewASM()}
	jobs := []workload.Job{
		{Combo: benchPair(b, "SB", "SD"), Alloc: []int{8, 8}},
		{Combo: benchPair(b, "VA", "CT"), Alloc: []int{8, 8}},
	}
	evals, err := workload.EvaluateAll(context.Background(), opt, jobs, cache)
	if err != nil {
		b.Fatal(err)
	}
	acc := &experiments.AccuracyResult{Evals: evals, MeanError: map[string]float64{}}
	b.ResetTimer()
	var below float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(acc, nil)
		below = r.Fractions["DASE"][0]
	}
	b.ReportMetric(below*100, "dase<10%")
}

// BenchmarkFig8a measures DASE accuracy under an uneven SM allocation.
func BenchmarkFig8a(b *testing.B) {
	benchAccuracy(b, []int{6, 10}, benchPair(b, "SB", "SD"))
}

// BenchmarkFig8b measures DASE accuracy with fewer SMs per app.
func BenchmarkFig8b(b *testing.B) {
	benchAccuracy(b, []int{4, 4}, benchPair(b, "SB", "SD"))
}

// BenchmarkFig9 compares the even split against DASE-Fair on one unfair
// workload and reports the unfairness reduction.
func BenchmarkFig9(b *testing.B) {
	cfg := DefaultConfig()
	combo := benchPair(b, "VA", "CT")
	cache := workload.NewAloneCache(cfg, benchCycles, 1)
	aloneIPC := make([]float64, 2)
	for i, prof := range combo.Profiles {
		res, err := cache.Get(context.Background(), prof)
		if err != nil {
			b.Fatal(err)
		}
		aloneIPC[i] = res.Apps[0].IPC
	}
	// The dynamic policy needs warm-up intervals plus SM-draining time
	// before its allocation pays off, so this bench runs 3x the usual
	// budget (see EXPERIMENTS.md Fig. 9 notes).
	policyCycles := uint64(3 * benchCycles)
	var improvement float64
	for i := 0; i < b.N; i++ {
		even, err := sched.Run(cfg, combo.Profiles, []int{8, 8}, policyCycles, 1, sched.Even{})
		if err != nil {
			b.Fatal(err)
		}
		fair, err := sched.Run(cfg, combo.Profiles, []int{8, 8}, policyCycles, 1, sched.NewDASEFair())
		if err != nil {
			b.Fatal(err)
		}
		ue := metrics.Unfairness([]float64{
			metrics.Slowdown(aloneIPC[0], even.Apps[0].IPC),
			metrics.Slowdown(aloneIPC[1], even.Apps[1].IPC),
		})
		uf := metrics.Unfairness([]float64{
			metrics.Slowdown(aloneIPC[0], fair.Apps[0].IPC),
			metrics.Slowdown(aloneIPC[1], fair.Apps[1].IPC),
		})
		improvement = (ue - uf) / ue
	}
	b.ReportMetric(improvement*100, "fairness-gain%")
}

// BenchmarkTableI measures the hardware-cost computation.
func BenchmarkTableI(b *testing.B) {
	var bits int
	for i := 0; i < b.N; i++ {
		c := core.HardwareCost(4, 16, 8, 8, 16)
		bits = c.PerPartitionBits
	}
	b.ReportMetric(float64(bits), "bits")
}

// --- Ablation benches (DESIGN.md §5): each reports DASE's error with one
// design element changed, on the same workload as BenchmarkFig5.

func benchAblation(b *testing.B, opt core.Options) {
	b.Helper()
	eval := benchEvalOptions(core.New(opt))
	cache := workload.NewAloneCache(eval.Cfg, eval.SharedCycles, eval.Seed)
	combo := benchPair(b, "SB", "SD")
	var errv float64
	for i := 0; i < b.N; i++ {
		ev, err := workload.Evaluate(context.Background(), eval, workload.Job{Combo: combo, Alloc: []int{8, 8}}, cache)
		if err != nil {
			b.Fatal(err)
		}
		errv = metrics.Mean(ev.Errors["DASE"])
	}
	b.ReportMetric(errv*100, "err%")
}

// BenchmarkAblationBaselineDASE is the reference point for the ablations.
func BenchmarkAblationBaselineDASE(b *testing.B) {
	benchAblation(b, core.Options{})
}

// BenchmarkAblationNoBLPNormalization drops the Eq. 14 division.
func BenchmarkAblationNoBLPNormalization(b *testing.B) {
	benchAblation(b, core.Options{DisableBLPNormalization: true})
}

// BenchmarkAblationNoAlphaDiscount drops the Eq. 15 TLP discount.
func BenchmarkAblationNoAlphaDiscount(b *testing.B) {
	benchAblation(b, core.Options{DisableAlphaDiscount: true})
}

// BenchmarkAblationNoScalingCaps drops the Eq. 24/25 caps.
func BenchmarkAblationNoScalingCaps(b *testing.B) {
	benchAblation(b, core.Options{DisableScalingCaps: true})
}

// BenchmarkAblationLiteralBankInterference uses the paper's literal Eq. 9.
func BenchmarkAblationLiteralBankInterference(b *testing.B) {
	benchAblation(b, core.Options{LiteralBankInterference: true})
}

// BenchmarkAblationStaticRequestMax uses the paper's static Eq. 20.
func BenchmarkAblationStaticRequestMax(b *testing.B) {
	benchAblation(b, core.Options{StaticRequestMax: true})
}

// BenchmarkAblationForceNMBB forces every app down the NMBB path.
func BenchmarkAblationForceNMBB(b *testing.B) {
	benchAblation(b, core.Options{ForceClass: core.ForceNMBB})
}

// BenchmarkAblationForceMBB forces every app down the MBB path.
func BenchmarkAblationForceMBB(b *testing.B) {
	benchAblation(b, core.Options{ForceClass: core.ForceMBB})
}

// BenchmarkAblationRefresh enables DRAM refresh (off by default because the
// paper's Table II lists no refresh timing) and reports the bandwidth cost.
func BenchmarkAblationRefresh(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Mem.TREFI = 5460 // ~3.9 us at 1.4 GHz
	cfg.Mem.TRFC = 224   // ~160 ns
	sb, _ := KernelByAbbr("SB")
	var bw float64
	for i := 0; i < b.N; i++ {
		res, err := RunAlone(cfg, sb, benchCycles, 1)
		if err != nil {
			b.Fatal(err)
		}
		bw = res.Apps[0].BWUtil
	}
	b.ReportMetric(bw*100, "bw%")
}

// BenchmarkAblationAppAwareRR uses the application-aware round-robin memory
// scheduler instead of FR-FCFS and reports the resulting unfairness on the
// Fig. 2 victim pair.
func BenchmarkAblationAppAwareRR(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Mem.AppAwareRR = true
	combo := benchPair(b, "VA", "CT")
	cache := workload.NewAloneCache(cfg, benchCycles, 1)
	opt := benchEvalOptions()
	opt.Cfg = cfg
	var unf float64
	for i := 0; i < b.N; i++ {
		ev, err := workload.Evaluate(context.Background(), opt, workload.Job{Combo: combo, Alloc: []int{8, 8}}, cache)
		if err != nil {
			b.Fatal(err)
		}
		unf = ev.Unfairness
	}
	b.ReportMetric(unf, "unfairness")
}

// BenchmarkAblationWriteback enables the writeback L2 (dirty-eviction write
// traffic) and reports the bandwidth effect.
func BenchmarkAblationWriteback(b *testing.B) {
	cfg := DefaultConfig()
	cfg.L2.Writeback = true
	sb, _ := KernelByAbbr("SB")
	var bw float64
	for i := 0; i < b.N; i++ {
		res, err := RunAlone(cfg, sb, benchCycles, 1)
		if err != nil {
			b.Fatal(err)
		}
		bw = res.Apps[0].BWUtil
	}
	b.ReportMetric(bw*100, "bw%")
}

// BenchmarkAblationFullATD samples every L2 set in the auxiliary tag
// directories instead of 8, measuring the accuracy effect of set sampling.
func BenchmarkAblationFullATD(b *testing.B) {
	cfg := DefaultConfig()
	cfg.ATDSampledSets = cfg.L2.Sets()
	eval := benchEvalOptions(core.New(core.Options{}))
	eval.Cfg = cfg
	cache := workload.NewAloneCache(cfg, benchCycles, 1)
	combo := benchPair(b, "VA", "CT") // cache-sensitive victim
	var errv float64
	for i := 0; i < b.N; i++ {
		ev, err := workload.Evaluate(context.Background(), eval, workload.Job{Combo: combo, Alloc: []int{8, 8}}, cache)
		if err != nil {
			b.Fatal(err)
		}
		errv = metrics.Mean(ev.Errors["DASE"])
	}
	b.ReportMetric(errv*100, "err%")
}
