package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/fleet"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
)

// fleetSpec fixes the scenario shape of one fleet-* workload. On the model
// engine the arrival trace and every engine seed come from -seed. On the
// cycle engine the run is 32 intervals — too few for an arrival trace's own
// variance, or the packing decisions that hang on it, to average out — so
// the scenario is frozen at frozenSeed, like the determinism golden.
type fleetSpec struct {
	gpus      int
	tenants   []fleet.TenantSpec
	rates     []float64 // Poisson arrivals per interval, one per tenant
	kernels   []string
	maxMinSMs int
	work      uint64
	window    int
	interval  uint64 // cycles per scheduling interval
	simEngine bool
}

const frozenSeed = 42

var fleetSpecs = map[string]fleetSpec{
	"fleet-model": {
		gpus: 16,
		tenants: []fleet.TenantSpec{
			{Name: "astra", QuotaSMs: 96, Weight: 1},
			{Name: "borei", QuotaSMs: 64, Weight: 1},
			{Name: "ceres", QuotaSMs: 64, Weight: 2},
			{Name: "delos", QuotaSMs: 32, Weight: 1},
		},
		rates:     []float64{1.0, 0.65, 0.65, 0.35},
		kernels:   []string{"BS", "CT", "QR", "SP", "SC", "NN"},
		maxMinSMs: 8, work: 400_000, window: 8, interval: 20_000,
	},
	// cmd/fleetsim's default fleet on the cycle engine, with arrivals heavy
	// enough that every GPU stays busy: a tick then always costs four
	// interval simulations.
	"fleet-sim": {
		gpus: 4,
		tenants: []fleet.TenantSpec{
			{Name: "astra", QuotaSMs: 24, Weight: 1},
			{Name: "borei", QuotaSMs: 16, Weight: 1},
			{Name: "ceres", QuotaSMs: 8, Weight: 2},
		},
		rates:     []float64{6, 4, 3},
		kernels:   []string{"BS", "CT", "QR", "SP", "SC", "NN"},
		maxMinSMs: 8, work: 100_000, window: 8, interval: 20_000,
		simEngine: true,
	},
}

// timedEngine times the ground-truth engine from outside, so a tick splits
// into engine time and the fleet's own scheduling work.
type timedEngine struct {
	fleet.Engine
	total time.Duration
	calls int
}

func (e *timedEngine) Interval(gpu, epoch int, ps []kernels.Profile, alloc []int, seed, cycles uint64) (*sim.IntervalSnapshot, []uint64, error) {
	t0 := time.Now()
	snap, instr, err := e.Engine.Interval(gpu, epoch, ps, alloc, seed, cycles)
	e.total += time.Since(t0)
	e.calls++
	return snap, instr, err
}

// fleetRun is one timed replay.
type fleetRun struct {
	f    *fleet.Fleet
	ops  []op // one per Tick; work = jobs that completed in it
	tick time.Duration
	done int
}

// replayFleet is fleet.Scenario.Run with each Tick timed and the jobs it
// completed counted (jobs placed so far minus jobs still resident).
func replayFleet(cfg fleet.Config, arrivals []fleet.Arrival, intervals int, tr *tracer) (*fleetRun, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	run := &fleetRun{f: f, ops: make([]op, 0, intervals)}
	next, placed := 0, 0
	start := time.Now()
	for iv := 0; iv < intervals; iv++ {
		for next < len(arrivals) && arrivals[next].Interval <= iv {
			if err := f.Submit(arrivals[next].Job); err != nil && !errors.Is(err, fleet.ErrJobTooLarge) {
				return nil, fmt.Errorf("interval %d: %w", iv, err)
			}
			next++
		}
		t0 := time.Now()
		if err := f.Tick(); err != nil {
			return nil, err
		}
		t1 := time.Now()
		rec := f.Records()
		placed += len(rec[len(rec)-1].Placements)
		done := placed - f.RunningJobs()
		run.ops = append(run.ops, op{end: t1.Sub(start), lat: t1.Sub(t0), work: float64(done - run.done)})
		run.done = done
		run.tick += t1.Sub(t0)
		tr.add("fleet.tick", -1, iv, t0, t1)
	}
	return run, nil
}

func csvDigest(rec []fleet.IntervalRecord) (string, error) {
	var buf bytes.Buffer
	if err := fleet.WriteCSV(&buf, rec); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), nil
}

func runFleet(name string, p *params) (*report, error) {
	spec := fleetSpecs[name]
	rep := newReport(name, p)
	intervals, prefix := p.sz.FleetModelIntervals, p.sz.FleetModelPrefix
	if spec.simEngine {
		intervals, prefix = p.sz.FleetSimIntervals, p.sz.FleetSimPrefix
	}
	if prefix > intervals {
		prefix = intervals
	}
	ps, err := profiles(spec.kernels...)
	if err != nil {
		return nil, err
	}
	seed := p.seed
	if spec.simEngine {
		seed = frozenSeed
	}
	gpu := config.Default()
	newConfig := func(tr *tracer) (fleet.Config, *timedEngine) {
		var eng fleet.Engine = &fleet.ModelEngine{Cfg: gpu}
		if spec.simEngine {
			eng = &fleet.SimEngine{Cfg: gpu}
		}
		var timed *timedEngine
		if tr != nil {
			timed = &timedEngine{Engine: eng}
			eng = timed
		}
		return fleet.Config{
			GPUs: spec.gpus, GPU: gpu, Tenants: spec.tenants,
			WindowIntervals: spec.window, IntervalCycles: spec.interval,
			Seed: seed, Engine: eng,
		}, timed
	}

	// Set-up: the arrival trace, and a replay of its first intervals as the
	// reference the timed run's history must reproduce byte for byte.
	var arrivals []fleet.Arrival
	setupS, err := timeSetups(p.sz.Setups, func() error {
		arrivals = fleet.PoissonArrivals(seed, spec.tenants, spec.rates, ps, intervals, spec.maxMinSMs, spec.work)
		cfg, _ := newConfig(nil)
		ref, err := replayFleet(cfg, arrivals, prefix, nil)
		if err != nil {
			return err
		}
		d, err := csvDigest(ref.f.Records())
		if prev, ok := rep.Digests["prefix"]; ok && prev != d {
			rep.failf("reference replay differs between set-up repetitions")
		}
		rep.Digests["prefix"] = d
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.setStat("setup_s", setupS)

	runtime.GC()
	cfg, _ := newConfig(nil)
	plain, err := replayFleet(cfg, arrivals, intervals, nil)
	if err != nil {
		return nil, err
	}
	run := plain
	var eng *timedEngine
	if p.traced() {
		runtime.GC()
		cfg, eng = newConfig(p.tr)
		if run, err = replayFleet(cfg, arrivals, intervals, p.tr); err != nil {
			return nil, err
		}
	}
	rep.Attempted = len(run.ops)

	rec := run.f.Records()
	t0 := time.Now()
	sum := fleet.Summarize(rec, run.f.Capacity())
	csv, err := csvDigest(rec)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	rep.Digests["csv"] = csv
	if err := fleet.CheckAll(rec, run.f.Capacity(), gpu.NumSMs); err != nil {
		rep.failf("fleet.CheckAll: %v", err)
	}
	if d, err := csvDigest(rec[:prefix]); err != nil || d != rep.Digests["prefix"] {
		rep.failf("first %d intervals differ from the reference replay (%v)", prefix, err)
	}
	if p.traced() {
		if d, err := csvDigest(plain.f.Records()); err != nil || d != csv {
			rep.failf("traced allocation history differs from untraced (%v)", err)
		}
	}
	if run.done == 0 {
		rep.failf("no fleet job completed")
	}

	rep.setPhase(p, plain.ops, run.ops)
	if !p.traced() {
		return rep, nil
	}

	p.tr.add("fleet.summarize", -1, -1, t0, t1)
	rep.set("fleet_jain", sum.JainIndex)
	rep.set("fleet.tick_ns", meanNs(run.tick, len(run.ops)))
	rep.set("fleet.engine_ns", meanNs(eng.total, eng.calls))
	rep.set("fleet.engine_calls", float64(eng.calls))
	rep.set("fleet.engine_share", float64(eng.total)/float64(run.tick))
	rep.set("fleet.sched_ns", meanNs(run.tick-eng.total, len(run.ops)))
	rep.set("fleet.jobs_done", float64(run.done))
	rep.set("fleet.idle_sm_intervals", float64(sum.IdleSMs))
	rep.set("fleet.summarize_ms", float64(t1.Sub(t0))/float64(time.Millisecond))
	return rep, nil
}
