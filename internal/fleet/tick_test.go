package fleet

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
)

// fleetModelScenario is the bench's `fleet-model` workload shape (16 GPUs,
// its four tenants, rates and six kernels, ModelEngine, seed 1) at a chosen
// length, so the layer numbers below and the bench measure the same thing.
func fleetModelScenario(tb testing.TB, intervals int) Scenario {
	tb.Helper()
	gpu := config.Default()
	tenants := []TenantSpec{
		{Name: "astra", QuotaSMs: 96, Weight: 1},
		{Name: "borei", QuotaSMs: 64, Weight: 1},
		{Name: "ceres", QuotaSMs: 64, Weight: 2},
		{Name: "delos", QuotaSMs: 32, Weight: 1},
	}
	var profiles []kernels.Profile
	for _, abbr := range []string{"BS", "CT", "QR", "SP", "SC", "NN"} {
		profiles = append(profiles, testProfile(tb, abbr))
	}
	const seed = 1
	return Scenario{
		Config: Config{
			GPUs: 16, GPU: gpu, Tenants: tenants,
			WindowIntervals: 8, IntervalCycles: 20_000,
			Seed: seed, Engine: &ModelEngine{Cfg: gpu},
		},
		Arrivals:  PoissonArrivals(seed, tenants, []float64{1.0, 0.65, 0.65, 0.35}, profiles, intervals, 8, 400_000),
		Intervals: intervals,
	}
}

// TestFleetModelCSVGolden pins the allocation-history CSV of the model
// engine on a reduced `fleet-model` shape. The digest was captured on the
// commit before placement became incremental (it is also the bench's
// `prefix` digest at -seed 1), so any byte the memo, the scratch buffers or
// the one-pass accounting move fails tier-1, not only the bench.
func TestFleetModelCSVGolden(t *testing.T) {
	const want = "90102575f82ce2118ce11a6787ba10cadbe66d4a08eb3bb177f1340051fd03e9"
	sc := fleetModelScenario(t, 2000)
	f, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, f.Records()); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("model-engine CSV digest moved:\n got %s\nwant %s", got, want)
	}
}

// tickReplay steps a scenario one interval at a time: the interval's
// arrivals, then Tick.
type tickReplay struct {
	f        *Fleet
	arrivals []Arrival
	next, iv int
}

func newTickReplay(tb testing.TB, sc Scenario) *tickReplay {
	tb.Helper()
	f, err := New(sc.Config)
	if err != nil {
		tb.Fatal(err)
	}
	return &tickReplay{f: f, arrivals: sc.Arrivals}
}

func (r *tickReplay) step(tb testing.TB) {
	for r.next < len(r.arrivals) && r.arrivals[r.next].Interval <= r.iv {
		if err := r.f.Submit(r.arrivals[r.next].Job); err != nil && !errors.Is(err, ErrJobTooLarge) {
			tb.Fatal(err)
		}
		r.next++
	}
	if err := r.f.Tick(); err != nil {
		tb.Fatal(err)
	}
	r.iv++
}

// tickWarmup is long enough for the fleet-model shape to reach its steady
// ≈90% occupancy and for every per-GPU scratch buffer to reach full size.
const tickWarmup = 500

// BenchmarkFleetTick is the fleet layer's number beside the dram and smcore
// ones: one steady-state Tick (with its interval's submissions) of the
// `fleet-model` shape on the model engine. Its history is only tickWarmup+b.N
// intervals long, so the collector has little live heap to mark and garbage
// costs less here than end to end; it is not the end-to-end number. The
// bench's `fleet-model` retains 50,000 intervals, and there garbage per tick
// — what TestTickAllocBudget pins — weighs more on throughput.
func BenchmarkFleetTick(b *testing.B) {
	r := newTickReplay(b, fleetModelScenario(b, tickWarmup+b.N))
	for i := 0; i < tickWarmup; i++ {
		r.step(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.step(b)
	}
}

// TestTickAllocBudget bounds what one steady-state Tick allocates on the
// `fleet-model` shape. Before placement was incremental a tick made ≈250
// allocations, and before the model engine owned its results and each GPU
// kept its kernel list, 49.5 (7.6 KB). Every allocation left is one the
// history keeps: each submitted job, the record's tenant and GPU slices, a
// tenant's queued demands, the placement copy and the record slice's own
// growth. The test recounts those from the records and requires the rest —
// garbage thrown away at the end of the tick — to be nil.
func TestTickAllocBudget(t *testing.T) {
	const ticks, allocBudget, byteBudget = 2000, 8, 3 << 10
	r := newTickReplay(t, fleetModelScenario(t, tickWarmup+ticks))
	for i := 0; i < tickWarmup; i++ {
		r.step(t)
	}
	submitted := r.next
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		r.step(t)
	}
	runtime.ReadMemStats(&after)
	submitted = r.next - submitted

	records, queued, placements := 0, 0, 0
	for _, rec := range r.f.Records()[tickWarmup:] {
		records += 2 // Tenants and GPUs
		for i := range rec.Tenants {
			if len(rec.Tenants[i].QueuedMinSMs) > 0 {
				queued++
			}
		}
		if len(rec.Placements) > 0 {
			placements++
		}
	}
	perTick := float64(after.Mallocs-before.Mallocs) / ticks
	bytesPerTick := float64(after.TotalAlloc-before.TotalAlloc) / ticks
	kept := float64(submitted+records+queued+placements) / ticks
	t.Logf("%.2f allocations, %.0f bytes per tick; retained by the history: %.2f submitted jobs, %.2f record slices, %.2f queued-demand lists, %.2f placement copies; unexplained %.2f",
		perTick, bytesPerTick, float64(submitted)/ticks, float64(records)/ticks,
		float64(queued)/ticks, float64(placements)/ticks, perTick-kept)
	if perTick > allocBudget || bytesPerTick > byteBudget {
		t.Fatalf("%.2f allocations and %.0f bytes per steady-state Tick, budget %d and %d", perTick, bytesPerTick, allocBudget, byteBudget)
	}
	// The record slice's doublings and a rare queue growth are the only
	// allocations the recount cannot see; a per-tick transient is ≥ 1.
	if perTick-kept > 0.5 {
		t.Fatalf("%.2f allocations per tick beyond what the history retains", perTick-kept)
	}
}
