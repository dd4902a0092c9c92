package baseline

import (
	"math"
	"testing"

	"dasesim/internal/sim"
)

func TestProfiledEstimate(t *testing.T) {
	p := NewProfiled([]float64{0.60, 0.40})
	s := &sim.IntervalSnapshot{
		IntervalCycles: 50_000,
		BusCycles:      300_000,
		Apps: []sim.AppInterval{
			{DataCycles: 90_000}, // 30% shared -> slowdown 2.0
			{DataCycles: 30_000}, // 10% shared -> slowdown 4.0
		},
	}
	out := p.Estimate(s)
	if math.Abs(out[0]-2.0) > 1e-9 || math.Abs(out[1]-4.0) > 1e-9 {
		t.Fatalf("Profiled = %v, want [2 4]", out)
	}
}

func TestProfiledClampsAndDegrades(t *testing.T) {
	p := NewProfiled([]float64{0.10})
	s := &sim.IntervalSnapshot{
		BusCycles: 100_000,
		Apps:      []sim.AppInterval{{DataCycles: 50_000}}, // more BW than alone
	}
	if got := p.Estimate(s)[0]; got != 1 {
		t.Fatalf("slowdown below 1 must clamp, got %v", got)
	}
	// Missing profile entries and zero bandwidth degrade to 1.
	p2 := NewProfiled(nil)
	s2 := &sim.IntervalSnapshot{BusCycles: 100, Apps: []sim.AppInterval{{}}}
	if got := p2.Estimate(s2)[0]; got != 1 {
		t.Fatalf("missing profile must give 1, got %v", got)
	}
	if got := p.Estimate(s2)[0]; got != 1 {
		t.Fatalf("an app that moved no data must give 1, got %v", got)
	}
}

func TestProfiledCopiesInput(t *testing.T) {
	in := []float64{0.5}
	p := NewProfiled(in)
	in[0] = 0.9
	if p.AloneBW[0] != 0.5 {
		t.Fatal("NewProfiled must copy the profile slice")
	}
}
