// Package workload enumerates multiprogrammed workload combinations,
// runs shared and alone simulations (with alone-run caching), and computes
// actual slowdowns, estimator outputs and estimation errors — the machinery
// behind every figure of the paper's evaluation.
//
// Simulations are deterministic and independent, so the harness fans them
// out over a GOMAXPROCS-sized worker pool.
package workload

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
)

// Combo is one multiprogrammed workload.
type Combo struct {
	Profiles []kernels.Profile
}

// Name returns a compact label like "SB+SD".
func (c Combo) Name() string {
	s := ""
	for i, p := range c.Profiles {
		if i > 0 {
			s += "+"
		}
		s += p.Abbr
	}
	return s
}

// AllPairs returns every unordered pair of distinct Table III kernels
// (C(15,2) = 105 workloads), the paper's "all two-application workloads".
func AllPairs() []Combo {
	ps := kernels.All()
	var out []Combo
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			out = append(out, Combo{Profiles: []kernels.Profile{ps[i], ps[j]}})
		}
	}
	return out
}

// RandomQuads returns n random four-application combinations drawn from the
// Table III kernels, deterministically from seed.
func RandomQuads(n int, seed uint64) []Combo {
	ps := kernels.All()
	out := make([]Combo, 0, n)
	state := seed ^ 0x9e3779b97f4a7c15
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for len(out) < n {
		idx := map[int]bool{}
		for len(idx) < 4 {
			idx[next(len(ps))] = true
		}
		var combo Combo
		for i := 0; i < len(ps); i++ {
			if idx[i] {
				combo.Profiles = append(combo.Profiles, ps[i])
			}
		}
		out = append(out, combo)
	}
	return out
}

// RandomPairs returns n random distinct-kernel pairs, deterministically.
func RandomPairs(n int, seed uint64) []Combo {
	all := AllPairs()
	state := seed ^ 0xd1342543de82ef95
	// Fisher-Yates shuffle prefix.
	for i := 0; i < n && i < len(all); i++ {
		state = state*6364136223846793005 + 1442695040888963407
		j := i + int((state>>33)%uint64(len(all)-i))
		all[i], all[j] = all[j], all[i]
	}
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// Baseline supplies alone-run results for slowdown ground truth; AloneCache
// implements it. Get aborts the backing simulation once ctx is done, so an
// aborted batch stops simulating alone baselines too.
type Baseline interface {
	Get(ctx context.Context, p kernels.Profile) (*sim.Result, error)
}

// AloneCache memoises alone-run results per kernel so the 105 pair
// evaluations reuse the 15 alone baselines. It keeps them in a
// content-addressed simcache store under AloneKey (which covers the full
// profile, GPU configuration, budget and seed), in memory or, opened on a
// directory, also on disk. It is safe for concurrent use, and concurrent
// requests for the same kernel simulate it only once.
type AloneCache struct {
	cfg    config.Config
	cycles uint64
	seed   uint64
	store  *simcache.Memory
}

// NewAloneCache builds an in-memory cache running alone simulations with
// the given budget.
func NewAloneCache(cfg config.Config, cycles uint64, seed uint64) *AloneCache {
	return &AloneCache{cfg: cfg, cycles: cycles, seed: seed, store: simcache.NewMemory(0)}
}

// OpenAloneCache is NewAloneCache backed by dir when dir is not empty: each
// baseline is one file per AloneKey (simcache.NewDir), so it survives across
// runs and is a hit for every process using dir, dased -cache-dir included.
func OpenAloneCache(cfg config.Config, cycles uint64, seed uint64, dir string) (*AloneCache, error) {
	c := NewAloneCache(cfg, cycles, seed)
	if dir == "" {
		return c, nil
	}
	store, err := simcache.NewDir(0, dir)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	c.store = store
	return c, nil
}

// AloneKey is the content address of a kernel's alone run on all SMs; the
// full profile is hashed, so WithMemFrac sweeps (Fig. 3) and custom kernels
// coexist. Exported so the dased server addresses the alone runs in its own
// job cache the same way, and a shared cache directory serves both.
func AloneKey(cfg config.Config, p kernels.Profile, cycles, seed uint64) string {
	return simcache.Key(cfg, []kernels.Profile{p}, []int{cfg.NumSMs}, cycles, seed, "alone")
}

func (c *AloneCache) key(p kernels.Profile) string {
	return AloneKey(c.cfg, p, c.cycles, c.seed)
}

// Get returns the alone result for the kernel, simulating it on first use.
func (c *AloneCache) Get(ctx context.Context, p kernels.Profile) (*sim.Result, error) {
	return c.store.GetOrCompute(ctx, c.key(p), func() (*sim.Result, error) {
		return sim.RunAloneContext(ctx, c.cfg, p, c.cycles, c.seed)
	})
}

// Eval is the outcome of evaluating one workload combination.
type Eval struct {
	Combo  Combo
	Alloc  []int
	Shared *sim.Result

	AloneIPC []float64
	Actual   []float64 // measured slowdowns (Eq. 1), plain FR-FCFS run
	// ActualEpoch holds the slowdowns of the priority-epoch run (the
	// system MISE/ASM are deployed on); nil when no epoch estimator ran.
	ActualEpoch []float64
	Estimates   map[string][]float64 // estimator name -> per-app estimate
	Errors      map[string][]float64 // estimator name -> per-app |error|
	Unfairness  float64              // Eq. 2 on actual slowdowns
	HSpeedup    float64              // Eq. 27 on actual slowdowns
}

// Options configure an evaluation run.
type Options struct {
	Cfg          config.Config
	SharedCycles uint64
	Seed         uint64
	// WarmupIntervals are skipped when averaging estimator intervals.
	WarmupIntervals int
	// Estimators evaluated on the plain shared run (DASE and other
	// passive-counter models).
	Estimators []core.Estimator
	// EpochEstimators evaluated on a second shared run with the rotating
	// highest-priority memory-controller epochs enabled — the system MISE
	// and ASM are designed around. Each estimator family is judged against
	// the actual slowdowns of its own system.
	EpochEstimators []core.Estimator
}

// DefaultOptions returns the evaluation configuration used throughout the
// experiments: Table II GPU, one-interval warmup.
func DefaultOptions(sharedCycles uint64) Options {
	return Options{
		Cfg:             config.Default(),
		SharedCycles:    sharedCycles,
		Seed:            1,
		WarmupIntervals: 1,
	}
}

// Job is one shared run: a combo, its initial SM allocation and the policy
// that may re-partition the SMs at interval boundaries.
type Job struct {
	Combo Combo
	Alloc []int
	// Policy is nil for a plain static-partition run. Policies are
	// stateful, so each job needs its own instance, and a policy job
	// cannot also run EpochEstimators.
	Policy sched.Policy
}

// Evaluate runs one job and computes actual slowdowns and per-estimator
// errors. When EpochEstimators are present, a second run with priority
// epochs provides their inputs and ground truth. The shared runs, epoch
// runs and alone-baseline lookups all abort once ctx is done.
func Evaluate(ctx context.Context, opt Options, job Job, cache Baseline) (*Eval, error) {
	combo := job.Combo
	if job.Policy != nil && len(opt.EpochEstimators) > 0 {
		return nil, fmt.Errorf("workload %s: policy %s cannot also drive the epoch run", combo.Name(), job.Policy.Name())
	}
	shared, err := sched.Run(ctx, opt.Cfg, combo.Profiles, job.Alloc, opt.SharedCycles, opt.Seed, job.Policy)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", combo.Name(), err)
	}
	ev := &Eval{
		Combo:     combo,
		Alloc:     append([]int(nil), job.Alloc...),
		Shared:    shared,
		AloneIPC:  make([]float64, len(combo.Profiles)),
		Actual:    make([]float64, len(combo.Profiles)),
		Estimates: map[string][]float64{},
		Errors:    map[string][]float64{},
	}
	for i, p := range combo.Profiles {
		alone, err := cache.Get(ctx, p)
		if err != nil {
			return nil, err
		}
		ev.AloneIPC[i] = alone.Apps[0].IPC
		ev.Actual[i] = metrics.Slowdown(alone.Apps[0].IPC, shared.Apps[i].IPC)
	}
	ev.Unfairness = metrics.Unfairness(ev.Actual)
	ev.HSpeedup = metrics.HarmonicSpeedup(ev.Actual)

	record := func(est core.Estimator, snaps []sim.IntervalSnapshot, actual []float64) {
		vals := core.AverageEstimates(est, snaps, opt.WarmupIntervals)
		ev.Estimates[est.Name()] = vals
		errs := make([]float64, len(vals))
		for i := range vals {
			errs[i] = metrics.Error(vals[i], actual[i])
		}
		ev.Errors[est.Name()] = errs
	}
	for _, est := range opt.Estimators {
		record(est, shared.Snapshots, ev.Actual)
	}

	if len(opt.EpochEstimators) > 0 {
		epochRun, err := sim.RunSharedContext(ctx, opt.Cfg, combo.Profiles, job.Alloc, opt.SharedCycles, opt.Seed, sim.WithPriorityEpochs())
		if err != nil {
			return nil, fmt.Errorf("workload %s (epochs): %w", combo.Name(), err)
		}
		ev.ActualEpoch = make([]float64, len(combo.Profiles))
		for i := range combo.Profiles {
			ev.ActualEpoch[i] = metrics.Slowdown(ev.AloneIPC[i], epochRun.Apps[i].IPC)
		}
		for _, est := range opt.EpochEstimators {
			record(est, epochRun.Snapshots, ev.ActualEpoch)
		}
	}
	return ev, nil
}

// EvaluateAll evaluates jobs in parallel over a GOMAXPROCS-sized worker
// pool, preserving input order. The first error cancels the batch: jobs not
// yet started are skipped and in-flight simulations abort, as they do when
// ctx is cancelled. The returned error is the first root-cause failure in
// job order; cancellations induced by that failure are not reported as the
// batch error.
func EvaluateAll(ctx context.Context, opt Options, jobs []Job, cache Baseline) ([]*Eval, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]*Eval, len(jobs))
	errs := make([]error, len(jobs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = Evaluate(ctx, opt, jobs[i], cache)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	for i := range jobs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	var firstErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if firstErr == nil {
			firstErr = e
		}
		// Prefer the real failure over the cancellations it induced.
		if !errors.Is(e, context.Canceled) {
			return nil, e
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
