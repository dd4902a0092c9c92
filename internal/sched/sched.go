// Package sched implements SM-allocation policies for spatial multitasking:
// the even static split (the paper's baseline), the LEFTOVER policy of
// current GPUs, and DASE-Fair (§7) — the fairness-oriented dynamic policy
// that re-partitions SMs using DASE slowdown estimates.
package sched

import (
	"context"
	"slices"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
)

// Policy reacts to interval snapshots and may re-partition the SMs.
type Policy interface {
	Name() string
	OnInterval(g *sim.GPU, snap *sim.IntervalSnapshot)
}

// Even is the static even-partition policy: it never reallocates.
type Even struct{}

// Name implements Policy.
func (Even) Name() string { return "Even" }

// OnInterval implements Policy (no-op).
func (Even) OnInterval(*sim.GPU, *sim.IntervalSnapshot) {}

// Run executes the kernels under the given policy and returns the result.
func Run(cfg config.Config, ps []kernels.Profile, alloc []int, cycles uint64, seed uint64, pol Policy, opts ...sim.Option) (*sim.Result, error) {
	return RunContext(context.Background(), cfg, ps, alloc, cycles, seed, pol, opts...)
}

// RunContext is Run with cancellation: the run aborts (returning ctx.Err())
// when ctx is cancelled or its deadline passes.
func RunContext(ctx context.Context, cfg config.Config, ps []kernels.Profile, alloc []int, cycles uint64, seed uint64, pol Policy, opts ...sim.Option) (*sim.Result, error) {
	g, err := sim.New(cfg, ps, alloc, seed, opts...)
	if err != nil {
		return nil, err
	}
	if pol != nil {
		g.IntervalHook = func(gg *sim.GPU, snap *sim.IntervalSnapshot) {
			pol.OnInterval(gg, snap)
		}
	}
	if err := g.RunContext(ctx, cycles); err != nil {
		return nil, err
	}
	return g.FinishRun(), nil
}

// LeftoverAllocation computes the allocation of the LEFTOVER policy used by
// current GPUs (§2.2): each kernel in turn is given as many SMs as it can
// fill (bounded by its thread-block count and residency); later kernels get
// whatever remains. Kernels that end up with zero SMs simply do not run
// concurrently — the policy's known flaw.
func LeftoverAllocation(cfg config.Config, ps []kernels.Profile) []int {
	remaining := cfg.NumSMs
	out := make([]int, len(ps))
	for i, p := range ps {
		if remaining == 0 {
			break
		}
		perSM := cfg.SM.MaxBlocks
		if byWarps := cfg.SM.MaxWarps / p.WarpsPerBlock; byWarps < perSM {
			perSM = byWarps
		}
		if perSM < 1 {
			perSM = 1
		}
		need := (p.Blocks + perSM - 1) / perSM
		if need > remaining {
			need = remaining
		}
		out[i] = need
		remaining -= need
	}
	return out
}

// partitionPolicy is the interval loop DASE-Fair and DASE-Perf share:
// estimate every app's slowdown with DASE, search the SM partitions for the
// objective's optimum (search.go), and re-partition via SM draining when
// the predicted improvement clears the hysteresis threshold.
type partitionPolicy struct {
	Est *core.DASE
	// WarmupIntervals skipped before the first reallocation.
	WarmupIntervals int
	// ImprovementThreshold is the minimum predicted relative improvement
	// of the objective required to trigger a reallocation (hysteresis).
	ImprovementThreshold float64
	// MinSMs per application.
	MinSMs int
	// Reallocations counts how many times the policy moved SMs.
	Reallocations int

	intervals int
	cur       []int
	search    PartitionSearch
}

func newPartitionPolicy() partitionPolicy {
	return partitionPolicy{
		Est:                  core.New(core.Options{}),
		WarmupIntervals:      1,
		ImprovementThreshold: 0.05,
		MinSMs:               1,
	}
}

func (p *partitionPolicy) onInterval(g *sim.GPU, snap *sim.IntervalSnapshot, name string, fair bool) {
	p.intervals++
	if p.intervals <= p.WarmupIntervals {
		return
	}
	slow := tracedEstimates(p.Est, g, snap, name)
	p.cur = currentSMs(p.cur, snap)
	cur := p.cur
	best, bestScore := p.search.search(slow, cur, snap.NumSMs, p.MinSMs, fair)
	var curScore float64
	var worth bool
	if fair {
		curScore = EstimatedUnfairness(slow, cur, cur, snap.NumSMs)
		worth = bestScore < curScore*(1-p.ImprovementThreshold)
	} else {
		curScore = estimatedWeightedSpeedup(slow, cur, cur, snap.NumSMs)
		worth = bestScore > curScore*(1+p.ImprovementThreshold)
	}
	realloc := best != nil && worth && !slices.Equal(best, cur) && g.SetAllocation(best) == nil
	if realloc {
		p.Reallocations++
	}
	emitDecision(g.Tracer(), snap, name, curScore, bestScore, best, realloc)
}

// DASEFair is the paper's fairness-oriented SM partition policy (§7): it
// converts the DASE estimates to reciprocals (Eq. 28), linearly
// interpolates each app's reciprocal as a function of its SM count
// (Eqs. 29-30), and picks the partition minimising estimated unfairness.
type DASEFair struct{ partitionPolicy }

// NewDASEFair returns the policy with the paper's defaults.
func NewDASEFair() *DASEFair { return &DASEFair{newPartitionPolicy()} }

// Name implements Policy.
func (p *DASEFair) Name() string { return "DASE-Fair" }

// OnInterval implements Policy.
func (p *DASEFair) OnInterval(g *sim.GPU, snap *sim.IntervalSnapshot) {
	p.onInterval(g, snap, p.Name(), true)
}

// tracedEstimates runs the interval's DASE estimation, emitting one dase.app
// event per application when tracing is enabled. Estimate delegates to
// EstimateDetailed, so the traced and untraced paths compute identical
// numbers — tracing cannot perturb scheduling decisions.
func tracedEstimates(est *core.DASE, g *sim.GPU, snap *sim.IntervalSnapshot, policy string) []float64 {
	tr := g.Tracer()
	if tr == nil {
		return est.Estimate(snap)
	}
	det := est.EstimateDetailed(snap)
	slow := make([]float64, len(det))
	for i := range det {
		slow[i] = det[i].Slowdown
		tr.Emit(telemetry.Event{
			Kind: telemetry.KindDASEApp, Cycle: snap.Cycle,
			App: int32(i), SM: -1, Note: policy,
			Alpha: det[i].Alpha, BLP: snap.Apps[i].BLP,
			TimeBank: det[i].TimeBank, TimeRow: det[i].TimeRow,
			TimeLLC: det[i].TimeLLC, MBB: det[i].MBB,
			Est: det[i].Slowdown, SMs: int32(snap.Apps[i].SMs),
		})
	}
	return slow
}

// emitDecision records one partition-search outcome (nil-tracer safe). best
// may be nil when the search found no feasible partition.
func emitDecision(tr *telemetry.Tracer, snap *sim.IntervalSnapshot, policy string, curScore, bestScore float64, best []int, realloc bool) {
	if tr == nil {
		return
	}
	e := telemetry.Event{
		Kind: telemetry.KindSchedDecision, Cycle: snap.Cycle,
		App: -1, SM: -1, Note: policy,
		CurScore: curScore, BestScore: bestScore, Realloc: realloc,
	}
	for i, n := range best {
		if i >= telemetry.MaxApps {
			break
		}
		e.Alloc[i] = int32(n)
		e.NApps = int32(i + 1)
	}
	tr.Emit(e)
}

// currentSMs refills buf with the snapshot's per-app SM counts.
func currentSMs(buf []int, snap *sim.IntervalSnapshot) []int {
	buf = buf[:0]
	for i := range snap.Apps {
		buf = append(buf, snap.Apps[i].SMs)
	}
	return buf
}
