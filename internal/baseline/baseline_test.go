package baseline

import (
	"math"
	"testing"

	"dasesim/internal/sim"
)

func snap(apps ...sim.AppInterval) *sim.IntervalSnapshot {
	return &sim.IntervalSnapshot{
		IntervalCycles: 50_000,
		NumSMs:         16,
		NumMCs:         6,
		PeakReqPerCyc:  1.0,
		ReqMaxFactor:   0.6,
		Apps:           apps,
	}
}

func TestMISERateRatio(t *testing.T) {
	m := NewMISE()
	// Served 10K over the interval; during its own priority slice (half
	// the interval) it got 8K -> ARSR = 8K/25K, SRSR = 10K/50K.
	a := sim.AppInterval{
		Alpha:      0.9, // memory-intensive: pure ratio
		Served:     10_000,
		PrioServed: 8_000,
		PrioCycles: 25_000,
	}
	got := m.Estimate(snap(a))[0]
	want := (8_000.0 / 25_000) / (10_000.0 / 50_000)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MISE = %v, want %v", got, want)
	}
}

func TestMISEAlphaDiscount(t *testing.T) {
	m := NewMISE()
	a := sim.AppInterval{
		Alpha:      0.3, // below the memory-intensive threshold
		Served:     10_000,
		PrioServed: 8_000,
		PrioCycles: 25_000,
	}
	ratio := (8_000.0 / 25_000) / (10_000.0 / 50_000)
	want := 1 - 0.3 + 0.3*ratio
	got := m.Estimate(snap(a))[0]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MISE with alpha = %v, want %v", got, want)
	}
}

func TestMISEWithoutEpochsReturnsOne(t *testing.T) {
	m := NewMISE()
	a := sim.AppInterval{Alpha: 0.9, Served: 10_000} // PrioCycles == 0
	if got := m.Estimate(snap(a))[0]; got != 1 {
		t.Fatalf("MISE without priority epochs = %v, want 1", got)
	}
}

func TestMISERatioClampedAtOne(t *testing.T) {
	m := NewMISE()
	// Priority slice slower than average (noise): ratio below 1 clamps.
	a := sim.AppInterval{
		Alpha:      0.9,
		Served:     10_000,
		PrioServed: 2_000,
		PrioCycles: 25_000,
	}
	if got := m.Estimate(snap(a))[0]; got != 1 {
		t.Fatalf("MISE sub-unity ratio = %v, want clamp to 1", got)
	}
}

func TestASMCacheCorrectionRaisesVictimEstimate(t *testing.T) {
	mise := NewMISE()
	asm := NewASM()
	// A cache victim: a third of its served requests are contention
	// misses detected by the ATD.
	victim := sim.AppInterval{
		Alpha:      0.9,
		Served:     9_000,
		ELLCMiss:   3_000,
		PrioServed: 6_000,
		PrioCycles: 25_000,
	}
	m := mise.Estimate(snap(victim))[0]
	a := asm.Estimate(snap(victim))[0]
	if a <= m {
		t.Fatalf("ASM (%v) must estimate a higher slowdown than MISE (%v) for a cache victim", a, m)
	}
	// Without contention misses the two coincide.
	clean := victim
	clean.ELLCMiss = 0
	m = mise.Estimate(snap(clean))[0]
	a = asm.Estimate(snap(clean))[0]
	if math.Abs(a-m) > 1e-9 {
		t.Fatalf("ASM (%v) and MISE (%v) must agree when there is no cache interference", a, m)
	}
}

// TestASMFloorsCountsAtOneRequest: contention misses beyond everything
// served floor both the shared and the alone count at one request, so the
// rates are equal and the estimate is 1.
func TestASMFloorsCountsAtOneRequest(t *testing.T) {
	a := sim.AppInterval{Alpha: 0.9, Served: 100, ELLCMiss: 500, PrioServed: 100, PrioCycles: 25_000}
	if got := NewASM().Estimate(snap(a))[0]; got != 1 {
		t.Fatalf("ASM with both counts floored = %v, want 1", got)
	}
}

func TestEstimatesPerApp(t *testing.T) {
	m := NewMISE()
	out := m.Estimate(snap(sim.AppInterval{}, sim.AppInterval{}, sim.AppInterval{}))
	if len(out) != 3 {
		t.Fatalf("got %d estimates for 3 apps", len(out))
	}
}
