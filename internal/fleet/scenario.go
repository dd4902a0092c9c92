package fleet

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

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
//
// The draws are replayed twice: once to size the trace and its job IDs
// exactly, once to fill them. Every `<tenant>-%04d` ID is a substring of
// one string, and every job's Kernel points into one copy of profiles
// (taken here, so a later write to the caller's slice cannot change the
// trace): the trace costs three allocations whatever its length.
func PoissonArrivals(seed uint64, tenants []TenantSpec, rates []float64, profiles []kernels.Profile, intervals, maxMinSMs int, work uint64) []Arrival {
	if len(rates) != len(tenants) {
		panic("fleet: PoissonArrivals: len(rates) != len(tenants)")
	}
	if len(profiles) == 0 || maxMinSMs < 1 {
		panic("fleet: PoissonArrivals: need profiles and a positive maxMinSMs")
	}
	n, idBytes := 0, 0
	drawArrivals(seed, rates, intervals, func(_, ti int, _ uint64) {
		idBytes += len(tenants[ti].Name) + 1 + counterDigits(n)
		n++
	})
	arrivals := make([]Arrival, n)
	shared := append([]kernels.Profile(nil), profiles...)
	var ids strings.Builder
	ids.Grow(idBytes)
	var num [20]byte
	n = 0
	drawArrivals(seed, rates, intervals, func(iv, ti int, h uint64) {
		name := tenants[ti].Name
		start := ids.Len()
		ids.WriteString(name)
		ids.WriteByte('-')
		d := strconv.AppendInt(num[:0], int64(n), 10)
		for range 4 - len(d) {
			ids.WriteByte('0')
		}
		ids.Write(d)
		arrivals[n] = Arrival{
			Interval: iv,
			Job: JobSpec{
				// The builder only appends, so an earlier ID's bytes
				// never change after String hands them out.
				ID:     ids.String()[start:],
				Tenant: name,
				Kernel: &shared[int(h%uint64(len(shared)))],
				MinSMs: 1 + int((h>>32)%uint64(maxMinSMs)),
				Work:   work,
			},
		}
		n++
	})
	return arrivals
}

// drawArrivals calls visit for each arrival of the trace in order, with its
// interval, its tenant's index and its hash.
func drawArrivals(seed uint64, rates []float64, intervals int, visit func(iv, ti int, h uint64)) {
	for iv := 0; iv < intervals; iv++ {
		for ti, rate := range rates {
			s := seed ^ uint64(iv+1)*0x9e3779b97f4a7c15 ^ uint64(ti+1)*0xc2b2ae3d27d4eb4f
			// A known bug, kept because the fleet goldens and the bench
			// digests pin this draw sequence: the loop bound is drawn
			// again on every iteration, so each arrival redraws the
			// count and a tenant gets fewer than rate arrivals per
			// interval (0.814 at rate 1.0, 0.312 at 0.35). ROADMAP item
			// 20 draws the count once per (interval, tenant).
			for k := 0; k < poissonDraw(&s, rate); k++ {
				visit(iv, ti, mix64(&s))
			}
		}
	}
}

// counterDigits is the width of the job counter n in an ID: %04d's.
func counterDigits(n int) int {
	d := 4
	for n /= 10_000; n > 0; n /= 10 {
		d++
	}
	return d
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
