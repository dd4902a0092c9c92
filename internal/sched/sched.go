// Package sched implements SM-allocation policies for spatial multitasking:
// the static split (Run with a nil policy; the paper's baseline when the
// split is even), the LEFTOVER policy of current GPUs, and DASE-Fair (§7) —
// the fairness-oriented dynamic policy that re-partitions SMs using DASE
// slowdown estimates.
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

// Run executes the kernels under the given policy and returns the result;
// a nil policy keeps alloc for the whole run. The run aborts, returning
// ctx.Err(), when ctx is cancelled or its deadline passes.
func Run(ctx context.Context, cfg config.Config, ps []kernels.Profile, alloc []int, cycles uint64, seed uint64, pol Policy, opts ...sim.Option) (*sim.Result, error) {
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

// DASEFair is the paper's fairness-oriented SM partition policy (§7): each
// interval it estimates every app's slowdown with DASE, converts the
// estimates to reciprocals (Eq. 28), linearly interpolates each app's
// reciprocal as a function of its SM count (Eqs. 29-30), searches the SM
// partitions for the one minimising estimated unfairness (search.go), and
// re-partitions via SM draining when the predicted improvement clears the
// hysteresis threshold.
type DASEFair struct {
	// WarmupIntervals skipped before the first reallocation.
	WarmupIntervals int
	// ImprovementThreshold is the minimum predicted relative reduction in
	// unfairness required to trigger a reallocation (hysteresis).
	ImprovementThreshold float64
	// Reallocations counts how many times the policy moved SMs.
	Reallocations int

	est       *core.DASE
	intervals int
	cur       []int
	search    PartitionSearch
}

// NewDASEFair returns the policy. It estimates with the repository's
// refined DASE, core.New(core.Options{}), not the paper's literal equations.
func NewDASEFair() *DASEFair {
	return &DASEFair{
		WarmupIntervals:      1,
		ImprovementThreshold: 0.05,
		est:                  core.New(core.Options{}),
	}
}

// Name implements Policy.
func (p *DASEFair) Name() string { return "DASE-Fair" }

// OnInterval implements Policy.
func (p *DASEFair) OnInterval(g *sim.GPU, snap *sim.IntervalSnapshot) {
	p.intervals++
	if p.intervals <= p.WarmupIntervals {
		return
	}
	name := p.Name()
	slow := tracedEstimates(p.est, g, snap, name)
	p.cur = currentSMs(p.cur, snap)
	cur := p.cur
	best, bestScore := p.search.Fair(slow, cur, snap.NumSMs, 1)
	curScore := EstimatedUnfairness(slow, cur, cur, snap.NumSMs)
	worth := bestScore < curScore*(1-p.ImprovementThreshold)
	realloc := best != nil && worth && !slices.Equal(best, cur) && g.SetAllocation(best) == nil
	if realloc {
		p.Reallocations++
	}
	emitDecision(g.Tracer(), snap, name, curScore, bestScore, best, realloc)
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
