// Package workload enumerates multiprogrammed workload combinations,
// runs shared and alone simulations, keeping each static, epoch and alone
// run in a content-addressed simcache store, and computes actual slowdowns,
// estimator outputs and estimation errors — the machinery behind every
// figure of the paper's evaluation.
//
// Simulations are deterministic and independent, so the harness fans them
// out over a GOMAXPROCS-sized worker pool.
package workload

import (
	"cmp"
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

// AloneKey is the content address of a kernel's alone run on all SMs; the
// full profile is hashed, so WithMemFrac sweeps (Fig. 3) and custom kernels
// coexist. Exported so the dased server addresses the alone runs in its own
// job cache the same way, and a shared cache directory serves both.
func AloneKey(cfg config.Config, p kernels.Profile, cycles, seed uint64) string {
	return simcache.Key(cfg, []kernels.Profile{p}, []int{cfg.NumSMs}, cycles, seed, "alone")
}

// Alone returns p's alone run on all of cfg's SMs from store, simulating it
// under AloneKey with opts on first use: the one-app shared run
// ([p], [cfg.NumSMs]). The key does not record opts, so they must leave the
// result unchanged, as invariant checks and dased's snapshot cap (below its
// cycle limit) do.
func Alone(ctx context.Context, store *simcache.Memory, cfg config.Config, p kernels.Profile, cycles, seed uint64, opts ...sim.Option) (*sim.Result, error) {
	return store.GetOrCompute(ctx, AloneKey(cfg, p, cycles, seed), func() (*sim.Result, error) {
		return sched.Run(ctx, cfg, []kernels.Profile{p}, []int{cfg.NumSMs}, cycles, seed, nil, opts...)
	})
}

// AloneIPC returns the IPC of each of ps's alone runs, read from store
// through Alone.
func AloneIPC(ctx context.Context, store *simcache.Memory, cfg config.Config, ps []kernels.Profile, cycles, seed uint64, opts ...sim.Option) ([]float64, error) {
	out := make([]float64, len(ps))
	for i, p := range ps {
		alone, err := Alone(ctx, store, cfg, p, cycles, seed, opts...)
		if err != nil {
			return nil, fmt.Errorf("alone baseline %s: %w", p.Abbr, err)
		}
		out[i] = alone.Apps[0].IPC
	}
	return out, nil
}

// Slowdowns returns each app's Eq. 1 slowdown in run against its alone IPC.
func Slowdowns(aloneIPC []float64, run *sim.Result) []float64 {
	out := make([]float64, len(aloneIPC))
	for i, ipc := range aloneIPC {
		out[i] = metrics.Slowdown(ipc, run.Apps[i].IPC)
	}
	return out
}

// sharedRun returns job's shared run. A policy run is simulated; a static
// split is read from store under simcache.Key with the given variant and
// simulated with simOpts on first use ("shared/even" is the key dased gives
// the same run).
func sharedRun(ctx context.Context, store *simcache.Memory, opt Options, job Job, variant string, simOpts ...sim.Option) (*sim.Result, error) {
	ps := job.Combo.Profiles
	if job.Policy != nil {
		return sched.Run(ctx, opt.Cfg, ps, job.Alloc, opt.SharedCycles, opt.Seed, job.Policy)
	}
	key := simcache.Key(opt.Cfg, ps, job.Alloc, opt.SharedCycles, opt.Seed, variant)
	return store.GetOrCompute(ctx, key, func() (*sim.Result, error) {
		return sched.Run(ctx, opt.Cfg, ps, job.Alloc, opt.SharedCycles, opt.Seed, nil, simOpts...)
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
	// AloneCycles is the alone baselines' budget; 0 means SharedCycles.
	// A policy study runs its shared runs longer than its alone runs.
	AloneCycles uint64
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
// epochs provides their inputs and ground truth. The static-split run
// ("shared/even"), the epoch run ("shared/epochs") and the alone baselines
// (AloneKey) are read from store and simulated on first use; a policy run
// is always simulated, because part of its outcome, such as the policy's
// reallocation count, is not in its sim.Result. Stored results are shared,
// so the returned Eval's Shared must not be written. Every simulation
// aborts once ctx is done.
func Evaluate(ctx context.Context, opt Options, job Job, store *simcache.Memory) (*Eval, error) {
	combo := job.Combo
	if job.Policy != nil && len(opt.EpochEstimators) > 0 {
		return nil, fmt.Errorf("workload %s: policy %s cannot also drive the epoch run", combo.Name(), job.Policy.Name())
	}
	shared, err := sharedRun(ctx, store, opt, job, "shared/even")
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", combo.Name(), err)
	}
	aloneIPC, err := AloneIPC(ctx, store, opt.Cfg, combo.Profiles, cmp.Or(opt.AloneCycles, opt.SharedCycles), opt.Seed)
	if err != nil {
		return nil, err
	}
	ev := &Eval{
		Combo:     combo,
		Alloc:     append([]int(nil), job.Alloc...),
		Shared:    shared,
		AloneIPC:  aloneIPC,
		Actual:    Slowdowns(aloneIPC, shared),
		Estimates: map[string][]float64{},
		Errors:    map[string][]float64{},
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
		epochRun, err := sharedRun(ctx, store, opt, job, "shared/epochs", sim.WithPriorityEpochs())
		if err != nil {
			return nil, fmt.Errorf("workload %s (epochs): %w", combo.Name(), err)
		}
		ev.ActualEpoch = Slowdowns(aloneIPC, epochRun)
		for _, est := range opt.EpochEstimators {
			record(est, epochRun.Snapshots, ev.ActualEpoch)
		}
	}
	return ev, nil
}

// EvaluateAll evaluates jobs in parallel over a GOMAXPROCS-sized worker
// pool on one store, preserving input order. The first error cancels the
// batch: jobs not yet started are skipped and in-flight simulations abort,
// as they do when ctx is cancelled. The returned error is the first root-cause failure in
// job order; cancellations induced by that failure are not reported as the
// batch error.
func EvaluateAll(ctx context.Context, opt Options, jobs []Job, store *simcache.Memory) ([]*Eval, error) {
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
				out[i], errs[i] = Evaluate(ctx, opt, jobs[i], store)
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
