package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
)

var (
	propSeed  = flag.Uint64("fleet.seed", 1, "base seed for the fleet property suite (iteration i uses seed+i)")
	propIters = flag.Int("fleet.iters", 1000, "iterations of the fleet property suite")
)

// propScenario is one randomized property-suite case: a scenario plus an
// optional mid-run tenant join/leave schedule.
type propScenario struct {
	seed     uint64
	sc       Scenario
	joinAt   int // interval to add joiner (-1: never)
	joiner   TenantSpec
	joinJobs []JobSpec
	leaveAt  int    // interval to remove leaver (-1: never)
	leaver   string // tenant name
}

// randomScenario derives a whole fleet scenario from one seed: fleet shape,
// tenant quotas and weights (zero quotas and oversubscription included),
// arrival rates, kernel mix, job demands and work budgets, and sometimes a
// tenant that joins or leaves mid-run. Same seed, same scenario.
func randomScenario(seed uint64) propScenario {
	s := seed
	rnd := func(n int) int { return int(mix64(&s) % uint64(n)) }

	gpu := config.Default()
	gpus := 1 + rnd(4)
	capacity := gpus * gpu.NumSMs

	nTenants := 1 + rnd(4)
	tenants := make([]TenantSpec, nTenants)
	rates := make([]float64, nTenants)
	for i := range tenants {
		quota := rnd(capacity + capacity/2) // oversubscription is in scope
		if rnd(5) == 0 {
			quota = 0 // zero-quota tenants ride on idle capacity only
		}
		tenants[i] = TenantSpec{
			Name:     fmt.Sprintf("t%d", i),
			QuotaSMs: quota,
			Weight:   float64(rnd(4)),
		}
		rates[i] = 0.2 + float64(rnd(20))/10
	}

	all := kernels.All()
	profiles := make([]kernels.Profile, 1+rnd(4))
	for i := range profiles {
		profiles[i] = all[rnd(len(all))]
	}

	works := []uint64{500, 5_000, 50_000, 1 << 40}
	intervals := 5 + rnd(16)
	p := propScenario{
		seed:    seed,
		joinAt:  -1,
		leaveAt: -1,
		sc: Scenario{
			Config: Config{
				GPUs:            gpus,
				GPU:             gpu,
				Tenants:         tenants,
				WindowIntervals: 1 + rnd(8),
				MaxJobsPerGPU:   1 + rnd(4),
				IntervalCycles:  10_000,
				Seed:            mix64(&s),
			},
			Arrivals:  PoissonArrivals(mix64(&s), tenants, rates, profiles, intervals, 1+rnd(gpu.NumSMs), works[rnd(len(works))]),
			Intervals: intervals,
		},
	}
	if rnd(3) == 0 && intervals > 4 {
		p.joinAt = 1 + rnd(intervals/2)
		p.joiner = TenantSpec{Name: "joiner", QuotaSMs: rnd(capacity / 2), Weight: 1}
		for i := 0; i < 1+rnd(3); i++ {
			p.joinJobs = append(p.joinJobs, JobSpec{
				ID:     fmt.Sprintf("joiner-%d", i),
				Tenant: "joiner",
				Kernel: profiles[rnd(len(profiles))],
				MinSMs: 1 + rnd(gpu.NumSMs),
				Work:   works[rnd(len(works))],
			})
		}
	}
	if rnd(3) == 0 && nTenants > 1 && intervals > 4 {
		p.leaveAt = 1 + rnd(intervals-2)
		p.leaver = tenants[rnd(nTenants)].Name
	}
	return p
}

// runProp replays a property scenario (arrivals plus the join/leave
// schedule) and returns the violated invariant, if any.
func runProp(p *propScenario) error {
	f, err := New(p.sc.Config)
	if err != nil {
		return fmt.Errorf("New: %w", err)
	}
	next := 0
	for iv := 0; iv < p.sc.Intervals; iv++ {
		if iv == p.joinAt {
			if err := f.AddTenant(p.joiner); err != nil {
				return fmt.Errorf("interval %d: AddTenant: %w", iv, err)
			}
			for _, js := range p.joinJobs {
				if err := f.Submit(js); err != nil {
					return fmt.Errorf("interval %d: submit joiner job: %w", iv, err)
				}
			}
		}
		if iv == p.leaveAt {
			if err := f.RemoveTenant(p.leaver); err != nil {
				return fmt.Errorf("interval %d: RemoveTenant(%s): %w", iv, p.leaver, err)
			}
		}
		for next < len(p.sc.Arrivals) && p.sc.Arrivals[next].Interval <= iv {
			js := p.sc.Arrivals[next].Job
			next++
			if p.leaveAt >= 0 && js.Tenant == p.leaver && iv >= p.leaveAt {
				continue // departed tenants accept no new work
			}
			if err := f.Submit(js); err != nil {
				return fmt.Errorf("interval %d: Submit(%s): %w", iv, js.ID, err)
			}
		}
		if err := f.Tick(); err != nil {
			return fmt.Errorf("interval %d: Tick: %w", iv, err)
		}
		if err := f.checkInvariants(); err != nil {
			return fmt.Errorf("interval %d: %w", iv, err)
		}
	}
	return CheckAll(f.Records(), f.Capacity(), p.sc.Config.GPU.NumSMs)
}

// shrinkProp minimizes a failing scenario before reporting: drop arrival
// chunks (delta-debugging style), then trim trailing intervals and the
// join/leave schedule, keeping every change that still fails. The shrunken
// scenario pinpoints the interaction; the seed is what gets committed to
// testdata/property_seeds.json as a regression.
func shrinkProp(p propScenario) propScenario {
	fails := func(q propScenario) bool { return runProp(&q) != nil }
	for chunk := len(p.sc.Arrivals) / 2; chunk >= 1; chunk /= 2 {
		for at := 0; at+chunk <= len(p.sc.Arrivals); {
			q := p
			q.sc.Arrivals = append(append([]Arrival{}, p.sc.Arrivals[:at]...), p.sc.Arrivals[at+chunk:]...)
			if fails(q) {
				p = q
			} else {
				at += chunk
			}
		}
	}
	for p.sc.Intervals > 1 {
		q := p
		q.sc.Intervals--
		if !fails(q) {
			break
		}
		p = q
	}
	if p.joinAt >= 0 {
		q := p
		q.joinAt, q.joinJobs = -1, nil
		if fails(q) {
			p = q
		}
	}
	if p.leaveAt >= 0 {
		q := p
		q.leaveAt = -1
		if fails(q) {
			p = q
		}
	}
	return p
}

// regressionSeeds are seeds that once produced a failing (shrunken)
// scenario; they replay before the randomized sweep so a fixed regression
// can never silently return.
func regressionSeeds(t *testing.T) []uint64 {
	data, err := os.ReadFile("testdata/property_seeds.json")
	if err != nil {
		t.Fatalf("reading regression seeds: %v", err)
	}
	var seeds []uint64
	if err := json.Unmarshal(data, &seeds); err != nil {
		t.Fatalf("parsing regression seeds: %v", err)
	}
	return seeds
}

// TestFleetProperties is the randomized fairness suite: for each seed it
// builds a random fleet scenario and asserts work conservation, quota
// safety, and allocation-history bookkeeping over the full run, and after
// every Tick that the score memo and the maintained counters agree with a
// recomputation from scratch (checkInvariants). Failures
// shrink to a minimal scenario before reporting. Run with -fleet.seed/-
// fleet.iters to reproduce or extend; -short trims the sweep.
func TestFleetProperties(t *testing.T) {
	iters := *propIters
	if testing.Short() && iters > 100 {
		iters = 100
	}
	checkedBefore := memoEntriesChecked
	for _, seed := range regressionSeeds(t) {
		p := randomScenario(seed)
		if err := runProp(&p); err != nil {
			t.Fatalf("regression seed %d failed again: %v", seed, err)
		}
	}
	for i := 0; i < iters; i++ {
		seed := *propSeed + uint64(i)
		p := randomScenario(seed)
		if err := runProp(&p); err != nil {
			m := shrinkProp(p)
			t.Fatalf("seed %d violated an invariant: %v\nshrunk to: %d arrivals, %d intervals, join@%d leave@%d (%s)\ncommit the seed to testdata/property_seeds.json and rerun with -fleet.seed=%d -fleet.iters=1",
				seed, err, len(m.sc.Arrivals), m.sc.Intervals, m.joinAt, m.leaveAt, m.leaver, seed)
		}
	}
	if iters >= 100 && memoEntriesChecked == checkedBefore {
		t.Error("no live score-memo entry was ever compared with the reference: the sweep is vacuous")
	}
}
