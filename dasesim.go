// Package dasesim is a cycle-level GPU spatial-multitasking simulator with
// run-time application-slowdown estimation (DASE) and fairness-oriented SM
// scheduling (DASE-Fair), reproducing Hu et al., "Run-Time Performance
// Estimation and Fairness-Oriented Scheduling Policy for Concurrent GPGPU
// Applications" (ICPP 2016).
//
// The package is a facade over the internal subsystems:
//
//   - a GTX 480-like GPU model (SMs with warps and private L1s, a crossbar
//     interconnect, shared L2 slices, FR-FCFS GDDR controllers with banks,
//     row buffers and tRRD/tFAW activation limits);
//   - 15 synthetic kernels calibrated to the paper's Table III workloads;
//   - the DASE slowdown estimator and the MISE/ASM baselines;
//   - SM-partition policies (even, LEFTOVER, DASE-Fair).
//
// Quickstart:
//
//	cfg := dasesim.DefaultConfig()
//	sb, _ := dasesim.KernelByAbbr("SB")
//	sd, _ := dasesim.KernelByAbbr("SD")
//	shared, _ := dasesim.RunShared(cfg, []dasesim.KernelProfile{sb, sd}, []int{8, 8}, 500_000, 1)
//	alone, _ := dasesim.RunAlone(cfg, sd, 500_000, 1)
//	slowdown := dasesim.Slowdown(alone.Apps[0].IPC, shared.Apps[1].IPC)
package dasesim

import (
	"os"

	"dasesim/internal/baseline"
	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
)

// Config is the simulated GPU configuration (Table II parameters).
type Config = config.Config

// DefaultConfig returns the paper's baseline GPU (GTX 480-like).
func DefaultConfig() Config { return config.Default() }

// LargeConfig returns a bigger Kepler-class device (24 SMs, 8 memory
// partitions) for robustness studies across GPU generations.
func LargeConfig() Config { return config.Large() }

// LoadConfig reads a GPU configuration from a JSON file (schema: the Config
// struct; bootstrap one with SaveConfig(DefaultConfig(), path)).
func LoadConfig(path string) (Config, error) { return config.LoadFile(path) }

// SaveConfig writes a configuration as JSON.
func SaveConfig(c Config, path string) error { return c.SaveFile(path) }

// LoadKernels reads custom kernel profiles from a JSON file (schema: the
// KernelProfile struct; bootstrap one with SaveKernels(Kernels(), path)).
func LoadKernels(path string) ([]KernelProfile, error) { return kernels.LoadFile(path) }

// SaveKernels writes kernel profiles as JSON.
func SaveKernels(ps []KernelProfile, path string) error {
	data, err := kernels.ToJSON(ps)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// KernelProfile describes one synthetic GPGPU kernel.
type KernelProfile = kernels.Profile

// Kernels returns the 15 Table III kernel profiles.
func Kernels() []KernelProfile { return kernels.All() }

// KernelByAbbr looks a kernel up by its two-letter abbreviation (e.g. "SB").
func KernelByAbbr(abbr string) (KernelProfile, bool) { return kernels.ByAbbr(abbr) }

// KernelNames returns the kernel abbreviations in Table III order.
func KernelNames() []string { return kernels.Names() }

// GPU is a running simulation instance; use it directly when you need
// interval hooks or dynamic SM reallocation. Most callers can use RunAlone,
// RunShared or RunWithPolicy instead.
type GPU = sim.GPU

// Option configures a GPU built through this facade (snapshot retention,
// tracing, ...).
type Option = sim.Option

// WithSnapshotRetention caps how many interval snapshots a run keeps in
// memory; whole-run aggregates stay exact.
func WithSnapshotRetention(n int) Option { return sim.WithSnapshotRetention(n) }

// Result summarises a finished simulation.
type Result = sim.Result

// AppResult summarises one application of a Result.
type AppResult = sim.AppResult

// IntervalSnapshot is the per-interval hardware-counter view that the
// estimators consume.
type IntervalSnapshot = sim.IntervalSnapshot

// NewGPU builds a simulation of the given kernels with alloc[i] SMs for
// kernel i.
func NewGPU(cfg Config, ps []KernelProfile, alloc []int, seed uint64, opts ...Option) (*GPU, error) {
	return sim.New(cfg, ps, alloc, seed, opts...)
}

// RunAlone simulates one kernel alone on all SMs (the IPC-alone baseline).
func RunAlone(cfg Config, p KernelProfile, cycles, seed uint64, opts ...Option) (*Result, error) {
	return sim.RunAlone(cfg, p, cycles, seed, opts...)
}

// RunShared simulates kernels concurrently under a static SM partition.
func RunShared(cfg Config, ps []KernelProfile, alloc []int, cycles, seed uint64, opts ...Option) (*Result, error) {
	return sim.RunShared(cfg, ps, alloc, cycles, seed, opts...)
}

// RunSharedWithEpochs is RunShared with the rotating highest-priority
// memory-controller epochs enabled; required when the run's snapshots will
// feed the MISE or ASM estimators.
func RunSharedWithEpochs(cfg Config, ps []KernelProfile, alloc []int, cycles, seed uint64, opts ...Option) (*Result, error) {
	return sim.RunShared(cfg, ps, alloc, cycles, seed, append([]Option{sim.WithPriorityEpochs()}, opts...)...)
}

// EvenAllocation splits n SMs evenly among k applications.
func EvenAllocation(n, k int) []int { return sim.EvenAllocation(n, k) }

// Estimator produces per-application slowdown estimates from interval
// snapshots.
type Estimator = core.Estimator

// DASEOptions tune the DASE estimator; the zero value is the paper's
// configuration.
type DASEOptions = core.Options

// NewDASE builds the paper's slowdown estimator.
func NewDASE() *core.DASE { return core.New(core.Options{}) }

// NewDASEWithOptions builds a DASE estimator with explicit options
// (ablations: literal Eq. 9 bank interference, static Requestmax, disabled
// BLP normalisation, forced MBB/NMBB classification, ...).
func NewDASEWithOptions(opt DASEOptions) *core.DASE { return core.New(opt) }

// NewMISE builds the MISE baseline estimator (HPCA 2013, ported to GPU).
// Runs feeding its estimates must enable the priority epochs — use
// RunSharedWithEpochs.
func NewMISE() Estimator { return baseline.NewMISE() }

// NewASM builds the ASM baseline estimator (MICRO 2015, ported to GPU).
func NewASM() Estimator { return baseline.NewASM() }

// NewProfiled builds the offline-profiling estimator (Aguilera et al.):
// slowdown approximated as profiled-alone-bandwidth / observed-shared-
// bandwidth. aloneBW[i] is app i's alone bandwidth fraction (Table III).
func NewProfiled(aloneBW []float64) Estimator { return baseline.NewProfiled(aloneBW) }

// AverageEstimates averages an estimator's per-interval outputs over a
// run's snapshots, skipping warm-up intervals.
func AverageEstimates(est Estimator, snaps []IntervalSnapshot, warmup int) []float64 {
	return core.AverageEstimates(est, snaps, warmup)
}

// Policy is an SM-allocation policy reacting to interval snapshots.
type Policy = sched.Policy

// EvenPolicy is the static even-partition baseline policy.
type EvenPolicy = sched.Even

// DASEFairPolicy is the paper's fairness-oriented dynamic SM partitioner.
type DASEFairPolicy = sched.DASEFair

// NewDASEFair builds the DASE-Fair policy with the paper's defaults.
func NewDASEFair() *DASEFairPolicy { return sched.NewDASEFair() }

// DASEQoSPolicy protects one latency-critical application with a maximum
// slowdown target, giving the remaining SMs to the other applications — the
// slowdown-aware QoS policy the paper names as future work.
type DASEQoSPolicy = sched.DASEQoS

// NewDASEQoS builds a QoS policy protecting app index critical with the
// given maximum slowdown relative to running alone.
func NewDASEQoS(critical int, target float64) *DASEQoSPolicy {
	return sched.NewDASEQoS(critical, target)
}

// DASEPerfPolicy maximises estimated weighted speedup instead of fairness —
// the throughput-oriented counterpart of DASE-Fair.
type DASEPerfPolicy = sched.DASEPerf

// NewDASEPerf builds the throughput-oriented policy.
func NewDASEPerf() *DASEPerfPolicy { return sched.NewDASEPerf() }

// TimeSlicePolicy is traditional temporal multitasking: the whole GPU
// rotates among applications every few estimation intervals.
type TimeSlicePolicy = sched.TimeSlice

// NewTimeSlice builds the temporal-multitasking policy with the given slice
// length in estimation intervals.
func NewTimeSlice(sliceIntervals int) *TimeSlicePolicy { return sched.NewTimeSlice(sliceIntervals) }

// WeightedSpeedup is Σ 1/slowdown_i, the system-throughput metric.
func WeightedSpeedup(slowdowns []float64) float64 { return metrics.WeightedSpeedup(slowdowns) }

// RunWithPolicy simulates kernels under a dynamic SM-allocation policy.
func RunWithPolicy(cfg Config, ps []KernelProfile, alloc []int, cycles, seed uint64, pol Policy, opts ...Option) (*Result, error) {
	return sched.Run(cfg, ps, alloc, cycles, seed, pol, opts...)
}

// LeftoverAllocation computes the allocation of the LEFTOVER policy used by
// current GPUs (first kernel takes what it can fill; the rest is left over).
func LeftoverAllocation(cfg Config, ps []KernelProfile) []int {
	return sched.LeftoverAllocation(cfg, ps)
}

// Slowdown is IPCalone/IPCshared (paper Eq. 1).
func Slowdown(ipcAlone, ipcShared float64) float64 { return metrics.Slowdown(ipcAlone, ipcShared) }

// Unfairness is MAX/MIN of the slowdowns (paper Eq. 2).
func Unfairness(slowdowns []float64) float64 { return metrics.Unfairness(slowdowns) }

// HarmonicSpeedup is N/Σslowdowns (paper Eq. 27).
func HarmonicSpeedup(slowdowns []float64) float64 { return metrics.HarmonicSpeedup(slowdowns) }

// EstimationError is |estimated-actual|/actual (paper Eq. 26).
func EstimationError(estimated, actual float64) float64 { return metrics.Error(estimated, actual) }
