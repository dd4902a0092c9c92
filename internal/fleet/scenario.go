package fleet

import (
	"errors"
	"fmt"
	"math"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
)

// Arrival schedules one job submission at the start of a scheduling
// interval. Traces are replayed in slice order; intervals must be
// non-decreasing.
type Arrival struct {
	Interval int     `json:"interval"`
	Job      JobSpec `json:"job"`
}

// Scenario is a replayable fleet run: a fleet configuration plus a
// deterministic arrival trace and a run length. Everything fleetsim and the
// test suites execute is a Scenario, so a fixed scenario reproduces a fixed
// allocation history byte for byte.
type Scenario struct {
	Config    Config
	Arrivals  []Arrival
	Intervals int
}

// Run replays the scenario: submit each interval's arrivals, then Tick.
// Oversized jobs (ErrJobTooLarge) are rejected by Submit as the scheduler
// contract requires; the replay records the rejection and carries on.
func (s *Scenario) Run() (*Fleet, error) {
	f, err := New(s.Config)
	if err != nil {
		return nil, err
	}
	next := 0
	for iv := 0; iv < s.Intervals; iv++ {
		for next < len(s.Arrivals) && s.Arrivals[next].Interval <= iv {
			if err := f.Submit(s.Arrivals[next].Job); err != nil && !errors.Is(err, ErrJobTooLarge) {
				return nil, fmt.Errorf("fleet: replay interval %d: %w", iv, err)
			}
			next++
		}
		if err := f.Tick(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// PoissonArrivals synthesizes a deterministic arrival trace: each tenant
// draws an independent Poisson arrival count every interval (rates[i] jobs
// per interval for tenants[i]), and each arriving job cycles through the
// given kernel profiles with a hash-derived SM demand in [1, maxMinSMs].
// All randomness derives from seed via splitmix64, so the same inputs
// always produce the same trace.
func PoissonArrivals(seed uint64, tenants []TenantSpec, rates []float64, profiles []kernels.Profile, intervals, maxMinSMs int, work uint64) []Arrival {
	if len(rates) != len(tenants) {
		panic("fleet: PoissonArrivals: len(rates) != len(tenants)")
	}
	if len(profiles) == 0 || maxMinSMs < 1 {
		panic("fleet: PoissonArrivals: need profiles and a positive maxMinSMs")
	}
	var arrivals []Arrival
	n := 0
	for iv := 0; iv < intervals; iv++ {
		for ti := range tenants {
			s := seed ^ uint64(iv+1)*0x9e3779b97f4a7c15 ^ uint64(ti+1)*0xc2b2ae3d27d4eb4f
			for k := 0; k < poissonDraw(&s, rates[ti]); k++ {
				h := mix64(&s)
				arrivals = append(arrivals, Arrival{
					Interval: iv,
					Job: JobSpec{
						ID:     fmt.Sprintf("%s-%04d", tenants[ti].Name, n),
						Tenant: tenants[ti].Name,
						Kernel: profiles[int(h%uint64(len(profiles)))],
						MinSMs: 1 + int((h>>32)%uint64(maxMinSMs)),
						Work:   work,
					},
				})
				n++
			}
		}
	}
	return arrivals
}

// poissonDraw samples Poisson(rate) by Knuth's product method with
// splitmix64 uniforms — deterministic for a given state.
func poissonDraw(state *uint64, rate float64) int {
	if rate <= 0 {
		return 0
	}
	l := math.Exp(-rate)
	k, p := 0, 1.0
	for {
		p *= float64(mix64(state)>>11) / (1 << 53)
		if p <= l {
			return k
		}
		k++
	}
}

// GoldenScenario is the eighth determinism golden's fixture: a fixed-seed
// 3-tenant, 4-GPU fleet over the real cycle engine with a Poisson arrival
// trace. Its allocation-history CSV hash is pinned in
// testdata/determinism_golden.json.
func GoldenScenario() Scenario {
	gpu := config.Default()
	tenants := []TenantSpec{
		{Name: "astra", QuotaSMs: 24, Weight: 1},
		{Name: "borei", QuotaSMs: 16, Weight: 1},
		{Name: "ceres", QuotaSMs: 8, Weight: 2},
	}
	profiles := make([]kernels.Profile, 0, 6)
	for _, abbr := range []string{"BS", "CT", "QR", "SP", "SC", "NN"} {
		p, ok := kernels.ByAbbr(abbr)
		if !ok {
			panic("fleet: GoldenScenario: unknown Table III kernel " + abbr)
		}
		profiles = append(profiles, p)
	}
	const seed = 42
	cfg := Config{
		GPUs:            4,
		GPU:             gpu,
		Tenants:         tenants,
		WindowIntervals: 6,
		IntervalCycles:  20_000,
		Seed:            seed,
		Engine:          &SimEngine{Cfg: gpu},
	}
	return Scenario{
		Config:    cfg,
		Arrivals:  PoissonArrivals(seed, tenants, []float64{1.6, 1.1, 0.8}, profiles, 10, 8, 400_000),
		Intervals: 12,
	}
}
