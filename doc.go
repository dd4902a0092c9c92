// Package dasesim is a cycle-level GPU spatial-multitasking simulator with
// run-time application-slowdown estimation (DASE) and fairness-oriented SM
// scheduling (DASE-Fair), reproducing Hu et al., "Run-Time Performance
// Estimation and Fairness-Oriented Scheduling Policy for Concurrent GPGPU
// Applications" (ICPP 2016).
//
// The root package declares nothing. It holds the module's end-to-end tests:
// the paper's demos (Example_quickstart … Example_fleet), the determinism
// goldens and the ablation benchmarks. The work is done under internal/:
//
//   - config: a GTX 480-like GPU (Table II) and its JSON form;
//   - kernels: the 15 synthetic kernels calibrated to Table III;
//   - sim: the cycle engine (SMs with warps and private L1s, a crossbar,
//     shared L2 slices, FR-FCFS GDDR controllers) and its alone/shared runs;
//   - core: the DASE slowdown estimator; baseline: MISE and ASM;
//   - sched: SM-partition policies (even, LEFTOVER, DASE-Fair);
//   - metrics: slowdown (Eq. 1), unfairness (Eq. 2), estimation error
//     (Eq. 26) and harmonic speedup (Eq. 27).
//
// Quickstart, inside this module:
//
//	cfg := config.Default()
//	sb, _ := kernels.ByAbbr("SB")
//	sd, _ := kernels.ByAbbr("SD")
//	shared, _ := sim.RunShared(cfg, []kernels.Profile{sb, sd}, []int{8, 8}, 500_000, 1)
//	alone, _ := sim.RunAlone(cfg, sd, 500_000, 1)
//	slowdown := metrics.Slowdown(alone.Apps[0].IPC, shared.Apps[1].IPC)
package dasesim
