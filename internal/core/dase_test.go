package core

import (
	"math"
	"testing"
	"testing/quick"

	"dasesim/internal/sim"
)

// snap builds a synthetic one-interval snapshot for direct model testing.
func snap(apps ...sim.AppInterval) *sim.IntervalSnapshot {
	return &sim.IntervalSnapshot{
		IntervalCycles: 50_000,
		NumSMs:         16,
		NumMCs:         6,
		PeakReqPerCyc:  1.0,
		PeakActPerCyc:  0.4,
		ReqMaxFactor:   0.6,
		Apps:           apps,
	}
}

// mbbApp is an app that clearly satisfies Eqs. 19-22 when paired with a
// busy co-runner.
func mbbApp(served uint64) sim.AppInterval {
	return sim.AppInterval{
		SMs: 8, Alpha: 0.9, Served: served,
		RowHits: served / 2, RowMisses: served / 2,
		BLP: 60, BLPAccess: 30, BLPBlocked: 10,
		TimeInBanks: served * 30,
		TBSum:       4000, TBShared: 48,
	}
}

func TestMBBClassificationAndSlowdown(t *testing.T) {
	d := New(Options{StaticRequestMax: true})
	// Two heavy apps: total served 40K >= Requestmax 30K; each has >= half
	// of Requestmax; alpha high. Both MBB.
	s := snap(mbbApp(25_000), mbbApp(15_000))
	det := d.EstimateDetailed(s)
	if !det[0].MBB || !det[1].MBB {
		t.Fatalf("both apps should be MBB: %+v %+v", det[0], det[1])
	}
	// Eq. 16/18: slowdown = total/own.
	if want := 40.0 / 25.0; math.Abs(det[0].Slowdown-want) > 1e-9 {
		t.Fatalf("app0 slowdown %v, want %v", det[0].Slowdown, want)
	}
	if want := 40.0 / 15.0; math.Abs(det[1].Slowdown-want) > 1e-9 {
		t.Fatalf("app1 slowdown %v, want %v", det[1].Slowdown, want)
	}
}

func TestMBBRequiresAllThreeConditions(t *testing.T) {
	d := New(Options{StaticRequestMax: true})
	// Eq. 19 fails: total served below Requestmax.
	s := snap(mbbApp(10_000), mbbApp(10_000))
	det := d.EstimateDetailed(s)
	if det[0].MBB {
		t.Fatal("Eq. 19 must gate MBB (total < Requestmax)")
	}
	// Eq. 21 fails for the starved app: its share is below 1/CountApp.
	s = snap(mbbApp(35_000), mbbApp(5_000))
	det = d.EstimateDetailed(s)
	if det[1].MBB {
		t.Fatal("Eq. 21 must exclude the starved app from the MBB class")
	}
	// Eq. 22 fails: low alpha means TLP hides the memory time.
	lowAlpha := mbbApp(20_000)
	lowAlpha.Alpha = 0.05
	s = snap(lowAlpha, mbbApp(20_000))
	det = d.EstimateDetailed(s)
	if det[0].MBB {
		t.Fatal("Eq. 22 must exclude low-alpha apps")
	}
}

func TestForceClassAblation(t *testing.T) {
	s := snap(mbbApp(25_000), mbbApp(15_000))
	if det := New(Options{ForceClass: ForceNMBB, StaticRequestMax: true}).EstimateDetailed(s); det[0].MBB {
		t.Fatal("ForceNMBB ignored")
	}
	if det := New(Options{ForceClass: ForceMBB, StaticRequestMax: true}).EstimateDetailed(s); !det[0].MBB {
		t.Fatal("ForceMBB ignored")
	}
}

// nmbbApp is a lightly loaded app on half the SMs.
func nmbbApp() sim.AppInterval {
	return sim.AppInterval{
		SMs: 8, Alpha: 0.4, Served: 5_000,
		RowHits: 4_000, RowMisses: 1_000,
		BLP: 40, BLPAccess: 20, BLPBlocked: 8,
		TimeInBanks: 5_000 * 30,
		ERBMiss:     100, ELLCMiss: 50,
		TBSum: 4000, TBShared: 48,
	}
}

func TestNMBBInterferenceDecomposition(t *testing.T) {
	d := New(Options{})
	s := snap(nmbbApp(), mbbApp(20_000))
	det := d.EstimateDetailed(s)
	e := det[0]
	if e.MBB {
		t.Fatal("light app must be NMBB")
	}
	// Eq. 9 (refined): Timeshared * BLPBlocked.
	if want := 50_000.0 * 8; e.TimeBank != want {
		t.Fatalf("TimeBank = %v, want %v", e.TimeBank, want)
	}
	// Eq. 10: ERBMiss * (tRP + tRCD) with the default 36-cycle penalty.
	if want := 100.0 * 36; e.TimeRow != want {
		t.Fatalf("TimeRow = %v, want %v", e.TimeRow, want)
	}
	// Eq. 11-12: ELLCMiss * TimeInBanks/Served.
	if want := 50.0 * 30; e.TimeLLC != want {
		t.Fatalf("TimeLLC = %v, want %v", e.TimeLLC, want)
	}
	// Eq. 14: normalised by BLP.
	if want := (e.TimeBank + e.TimeRow + e.TimeLLC) / 40; math.Abs(e.TimeInterference-want) > 1e-9 {
		t.Fatalf("TimeInterference = %v, want %v", e.TimeInterference, want)
	}
	// Eq. 15: alpha-weighted.
	ratio := 50_000.0 / (50_000.0 - e.TimeInterference)
	if want := 1 - 0.4 + 0.4*ratio; math.Abs(e.SlowdownAssigned-want) > 1e-9 {
		t.Fatalf("SlowdownAssigned = %v, want %v", e.SlowdownAssigned, want)
	}
	// Eq. 23: doubled for 8 of 16 SMs (caps not binding here).
	if want := e.SlowdownAssigned * 2; math.Abs(e.Slowdown-want) > 1e-9 {
		t.Fatalf("Slowdown = %v, want %v (Eq. 23)", e.Slowdown, want)
	}
}

func TestLiteralBankInterferenceAblation(t *testing.T) {
	s := snap(nmbbApp(), mbbApp(20_000))
	lit := New(Options{LiteralBankInterference: true}).EstimateDetailed(s)
	// Eq. 9 literal: Timeshared * (BLP - BLPAccess) = 50_000 * 20.
	if want := 50_000.0 * 20; lit[0].TimeBank != want {
		t.Fatalf("literal TimeBank = %v, want %v", lit[0].TimeBank, want)
	}
}

func TestTLPCapEq24(t *testing.T) {
	d := New(Options{})
	a := nmbbApp()
	a.TBSum = 48 // every remaining block is already resident
	a.TBShared = 48
	s := snap(a, mbbApp(20_000))
	det := d.EstimateDetailed(s)
	// With TBsum == TBshared, more SMs cannot help: the all-SM slowdown
	// collapses to the assigned-SM slowdown.
	if math.Abs(det[0].Slowdown-det[0].SlowdownAssigned) > 1e-9 {
		t.Fatalf("Eq. 24 cap not applied: %v vs %v", det[0].Slowdown, det[0].SlowdownAssigned)
	}
}

func TestBWCapEq25(t *testing.T) {
	d := New(Options{StaticRequestMax: true})
	a := nmbbApp()
	a.Served = 20_000 // large demand: Requestmax/reqShared caps the scaling
	a.ELLCMiss = 0
	a.TimeInBanks = 20_000 * 30
	a.Alpha = 0.4
	s := snap(a, mbbApp(20_000))
	det := d.EstimateDetailed(s)
	bwCap := 30_000.0 / 20_000.0
	if det[0].Slowdown > det[0].SlowdownAssigned+1e-9 && det[0].Slowdown > bwCap+1e-9 {
		t.Fatalf("Eq. 25 cap exceeded: slowdown %v, cap %v", det[0].Slowdown, bwCap)
	}
}

func TestAlphaClamp(t *testing.T) {
	a := nmbbApp()
	a.Alpha = 0.95 // above the clamp threshold -> treated as 1
	s := snap(a, mbbApp(20_000))
	det := New(Options{}).EstimateDetailed(s)
	ratio := 50_000.0 / (50_000.0 - det[0].TimeInterference)
	if math.Abs(det[0].SlowdownAssigned-ratio) > 1e-9 {
		t.Fatalf("alpha clamp: assigned %v, want pure ratio %v", det[0].SlowdownAssigned, ratio)
	}
}

func TestDynamicRequestMax(t *testing.T) {
	s := snap(nmbbApp())
	a := &s.Apps[0]
	// 20% miss rate: activation bound 0.4/0.2 = 2 > bus peak 1 -> bus-bound.
	got := dynamicRequestMax(s, a)
	want := 1.0 * 50_000 * 0.95
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("dynamicRequestMax = %v, want %v", got, want)
	}
	// All-miss app: activation-bound at 0.4 lines/cycle.
	a.RowHits, a.RowMisses = 0, 1000
	got = dynamicRequestMax(s, a)
	want = 0.4 * 50_000 * 0.95
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("all-miss dynamicRequestMax = %v, want %v", got, want)
	}
}

func TestSlowdownNeverBelowOneProperty(t *testing.T) {
	d := New(Options{})
	f := func(served uint32, alpha8 uint8, blocked uint8, sms uint8) bool {
		a := sim.AppInterval{
			SMs:        int(sms%16) + 1,
			Alpha:      float64(alpha8) / 255,
			Served:     uint64(served % 100_000),
			RowHits:    uint64(served % 7_000),
			RowMisses:  uint64(served % 11_000),
			BLP:        40,
			BLPAccess:  20,
			BLPBlocked: float64(blocked % 40),
			TBSum:      100, TBShared: 10,
			TimeInBanks: uint64(served%100_000) * 30,
		}
		out := d.Estimate(snap(a, mbbApp(20_000)))
		for _, v := range out {
			if v < 1 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestAverageEstimates(t *testing.T) {
	d := New(Options{StaticRequestMax: true})
	s1 := snap(mbbApp(25_000), mbbApp(15_000))
	s2 := snap(mbbApp(15_000), mbbApp(25_000))
	avg := AverageEstimates(d, []sim.IntervalSnapshot{*s1, *s2}, 0)
	want0 := (40.0/25 + 40.0/15) / 2
	if math.Abs(avg[0]-want0) > 1e-9 {
		t.Fatalf("average = %v, want %v", avg[0], want0)
	}
	// Warmup skips the first snapshot.
	avg = AverageEstimates(d, []sim.IntervalSnapshot{*s1, *s2}, 1)
	if math.Abs(avg[0]-40.0/15) > 1e-9 {
		t.Fatalf("warmup average = %v, want %v", avg[0], 40.0/15)
	}
	// All snapshots warmed up: falls back to using everything.
	avg = AverageEstimates(d, []sim.IntervalSnapshot{*s1}, 5)
	if math.Abs(avg[0]-40.0/25) > 1e-9 {
		t.Fatalf("fallback average = %v", avg[0])
	}
	if AverageEstimates(d, nil, 0) != nil {
		t.Fatal("empty snapshots should return nil")
	}
}

func TestHardwareCostMatchesPaper(t *testing.T) {
	c := HardwareCost(4, 16, 8, 8, 16)
	// The paper quotes < 0.4 KB per partition for N = 4 and < 0.625% of a
	// 64 KB L2 slice.
	if kb := float64(c.PerPartitionBits) / 8 / 1024; kb >= 0.4 {
		t.Fatalf("per-partition cost %.3f KB, paper says < 0.4 KB", kb)
	}
	if frac := c.FractionOfL2(64 * 1024); frac >= 0.00625 {
		t.Fatalf("L2 fraction %.4f, paper says < 0.625%%", frac)
	}
	if len(c.Items) == 0 || c.PerSMBits == 0 {
		t.Fatal("cost breakdown incomplete")
	}
}
