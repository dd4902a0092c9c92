package main

import (
	"math"
	"runtime"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
)

// simSpec fixes the inputs of one sim-* workload. Nothing in it comes from
// -seed: a different simulation seed sends DASE-Fair down a different
// reallocation path and moves host time per cycle by several percent, which
// would be read as noise. Every seed measures the same simulation.
type simSpec struct {
	kernels []string
	alloc   []int
	fair    bool // run under DASE-Fair instead of the static split
}

// simSeed is the simulation seed of the sim-* workloads and their baselines.
const simSeed = 1

var simSpecs = map[string]simSpec{
	"sim-mem2":      {kernels: []string{"SB", "SD"}, alloc: []int{8, 8}},
	"sim-cmp4-fair": {kernels: []string{"CT", "QR", "SN", "BG"}, alloc: []int{4, 4, 4, 4}, fair: true},
}

func runSim(name string, p *params) (*report, error) {
	spec := simSpecs[name]
	cfg := config.Default()
	ps, err := profiles(spec.kernels...)
	if err != nil {
		return nil, err
	}
	cycles := p.sz.SimMem2Cycles
	if spec.fair {
		cycles = p.sz.SimCmp4Cycles
	}
	rep := newReport(name, p)

	// Set-up: the alone-IPC baselines of Eq. 1. The engine is deterministic,
	// so every repetition must reproduce the first one's results.
	var aloneIPC []float64
	setupS, err := timeSetups(p.sz.Setups, func() error {
		ipc := make([]float64, len(ps))
		digs := make([]string, len(ps))
		if err := forEach(len(ps), func(i int) error {
			res, err := sim.RunAlone(cfg, ps[i], p.sz.SimAloneCycles, simSeed)
			if err != nil {
				return err
			}
			ipc[i], digs[i] = res.Apps[0].IPC, digest(res)
			return nil
		}); err != nil {
			return err
		}
		d := digest(digs)
		if prev, ok := rep.Digests["alone"]; ok && prev != d {
			rep.failf("alone baselines differ between set-up repetitions: %s vs %s", prev, d)
		}
		aloneIPC, rep.Digests["alone"] = ipc, d
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.setStat("setup_s", setupS)

	runtime.GC()
	plain, err := simulate(cfg, ps, spec, cycles, p.sz.SimSliceCycles, nil)
	if err != nil {
		return nil, err
	}
	run := plain
	if p.traced() {
		runtime.GC()
		if run, err = simulate(cfg, ps, spec, cycles, p.sz.SimSliceCycles, p.tr); err != nil {
			return nil, err
		}
		if a, b := digest(plain.res), digest(run.res); a != b {
			rep.failf("traced sim.Result %s differs from untraced %s", b, a)
		}
	}
	rep.Attempted = len(run.ops)
	rep.Digests["result"] = digest(run.res)

	res := run.res
	if res.Cycles != cycles {
		rep.failf("simulated %d cycles, want %d", res.Cycles, cycles)
	}
	for i := range res.Apps {
		if res.Apps[i].Instructions == 0 {
			rep.failf("app %s retired no instructions", res.Apps[i].Abbr)
		}
	}
	errPct, unfair := simQuality(res, aloneIPC)
	if !(unfair >= 1) || math.IsInf(unfair, 0) {
		rep.failf("unfairness %v is not a finite ratio >= 1", unfair)
	}

	rep.setPhase(p, plain.ops, run.ops)
	if !p.traced() {
		return rep, nil
	}

	rep.set("dase_err_pct", errPct)
	rep.set("unfairness", unfair)
	stepNs := meanNs(run.wall, int(cycles))
	rep.set("sim.step_ns", stepNs)
	rep.set("sim.allocs_per_kcycle", float64(run.mallocs)/float64(cycles)*1000)
	rep.set("sim.bytes_per_kcycle", float64(run.bytes)/float64(cycles)*1000)
	var ipc float64
	for i := range res.Apps {
		ipc += res.Apps[i].IPC
	}
	rep.set("sim.ipc", ipc)
	rep.set("sim.bw_util", res.BWUtilTotal())
	if run.policy != nil {
		rep.set("sched.policy_ns", meanNs(run.policy.total, run.policy.calls))
		rep.set("sched.reallocations", float64(run.reallocs))
	}

	// Layer replays: stand-alone SMs against a fixed-latency stub produce a
	// request trace, which is then replayed into each memory-side layer.
	lat := make([]uint64, len(res.Apps))
	var served uint64
	for i := range res.Apps {
		lat[i] = uint64(math.Max(1, math.Round(res.Apps[i].MeanLatency)))
		served += res.Apps[i].Served
	}
	ly := replayLayers(cfg, ps, spec.alloc, simSeed, lat, float64(served)/float64(cycles), p.sz.LayerReplayCycle, p.tr)
	share := func(nsPerCycle float64) float64 { return nsPerCycle / stepNs }
	rep.set("smcore.cycle_ns", ly.smNs)
	rep.set("smcore.share", share(ly.smNs))
	rep.set("smcore.issued", float64(ly.issued))
	rep.set("dram.cycle_ns", ly.dramNs)
	rep.set("dram.share", share(ly.dramNs))
	rep.set("dram.reqs", float64(ly.dramReqs))
	rep.set("dram.row_hit_ratio", ly.rowHitRatio)
	rep.set("cache.access_ns", ly.cacheAccessNs)
	rep.set("cache.share", share(ly.cacheNs))
	rep.set("cache.l2_hit_ratio", ly.l2HitRatio)
	rep.set("icnt.hop_ns", ly.icntHopNs)
	rep.set("icnt.share", share(ly.icntNs))
	rep.set("sim.residual_share", 1-share(ly.smNs+ly.dramNs+ly.cacheNs+ly.icntNs))
	return rep, nil
}

// simRun is one timed simulation.
type simRun struct {
	res  *sim.Result
	ops  []op // one per slice
	wall time.Duration

	// Traced runs only.
	policy         *timedPolicy
	reallocs       int
	mallocs, bytes uint64
}

// timedPolicy times a policy's interval callback from outside.
type timedPolicy struct {
	sched.Policy
	total time.Duration
	calls int
}

func (t *timedPolicy) OnInterval(g *sim.GPU, snap *sim.IntervalSnapshot) {
	t0 := time.Now()
	t.Policy.OnInterval(g, snap)
	t.total += time.Since(t0)
	t.calls++
}

// simulate does what sim.RunShared / sched.Run do — build, hook the policy,
// run, FinishRun — but advances in slices so the phase can be cut into
// segments and each slice timed. Slicing does not change results: the
// sequential engine steps cycle by cycle either way. With a tracer it also
// times the policy, counts allocations and records one span per slice.
func simulate(cfg config.Config, ps []kernels.Profile, spec simSpec, cycles, slice uint64, tr *tracer) (*simRun, error) {
	g, err := sim.New(cfg, ps, spec.alloc, simSeed)
	if err != nil {
		return nil, err
	}
	run := &simRun{}
	var fair *sched.DASEFair
	if spec.fair {
		fair = sched.NewDASEFair()
		var pol sched.Policy = fair
		if tr != nil {
			run.policy = &timedPolicy{Policy: fair}
			pol = run.policy
		}
		g.IntervalHook = func(gg *sim.GPU, snap *sim.IntervalSnapshot) { pol.OnInterval(gg, snap) }
	}
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	run.ops = make([]op, 0, cycles/slice+1)
	start := time.Now()
	prev := start
	for done := uint64(0); done < cycles; {
		n := slice
		if cycles-done < n {
			n = cycles - done
		}
		g.Run(n)
		done += n
		now := time.Now()
		run.ops = append(run.ops, op{end: now.Sub(start), lat: now.Sub(prev), work: float64(n)})
		tr.add("sim.slice", -1, len(run.ops)-1, prev, now)
		prev = now
	}
	run.wall = prev.Sub(start)
	if tr != nil {
		runtime.ReadMemStats(&after)
		run.mallocs, run.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		tr.add("sim.run", -1, -1, start, prev)
	}
	run.res = g.FinishRun()
	if fair != nil {
		run.reallocs = fair.Reallocations
	}
	return run, nil
}

// simQuality scores the run the way the paper does: actual slowdowns
// against the alone baselines (Eq. 1), their MAX/MIN (Eq. 2), and DASE's
// mean relative error (Eq. 26) over apps and post-warm-up intervals.
func simQuality(res *sim.Result, aloneIPC []float64) (errPct, unfairness float64) {
	actual := make([]float64, len(res.Apps))
	for i := range actual {
		actual[i] = metrics.Slowdown(aloneIPC[i], res.Apps[i].IPC)
	}
	est := core.New(core.Options{})
	var sum float64
	var n int
	for si := 1; si < len(res.Snapshots); si++ { // interval 0 is warm-up
		for i, s := range est.Estimate(&res.Snapshots[si]) {
			sum += metrics.Error(s, actual[i])
			n++
		}
	}
	if n > 0 {
		errPct = sum / float64(n) * 100
	}
	return errPct, metrics.Unfairness(actual)
}
