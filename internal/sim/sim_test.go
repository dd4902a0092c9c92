package sim

import (
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/dram"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
)

func twoApps(t *testing.T) []kernels.Profile {
	t.Helper()
	a, ok := kernels.ByAbbr("QR")
	if !ok {
		t.Fatal("QR missing")
	}
	b, ok := kernels.ByAbbr("CT")
	if !ok {
		t.Fatal("CT missing")
	}
	return []kernels.Profile{a, b}
}

func TestNewRejectsBadInputs(t *testing.T) {
	cfg := config.Default()
	ps := twoApps(t)
	cases := []struct {
		name  string
		build func() error
	}{
		{"no apps", func() error { _, err := New(cfg, nil, nil, 1); return err }},
		{"17 apps", func() error {
			many, alloc := make([]kernels.Profile, 17), make([]int, 17)
			for i := range many {
				many[i] = ps[i%2]
			}
			alloc[0] = 16
			_, err := New(cfg, many, alloc, 1)
			return err
		}},
		{"alloc mismatch", func() error { _, err := New(cfg, ps, []int{8}, 1); return err }},
		{"negative alloc", func() error { _, err := New(cfg, ps, []int{17, -1}, 1); return err }},
		{"empty alloc", func() error { _, err := New(cfg, ps, []int{0, 0}, 1); return err }},
		{"over-alloc", func() error { _, err := New(cfg, ps, []int{12, 12}, 1); return err }},
		{"bad config", func() error {
			bad := cfg
			bad.NumSMs = 0
			_, err := New(bad, ps, []int{8, 8}, 1)
			return err
		}},
		{"bad profile", func() error {
			badPs := append([]kernels.Profile(nil), ps...)
			badPs[0].ComputeLat = 0
			_, err := New(cfg, badPs, []int{8, 8}, 1)
			return err
		}},
	}
	for _, tc := range cases {
		if tc.build() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestNewAcceptsSixteenApps: sixteen applications is the supported maximum
// (the DRAM controllers' per-app mask arrays), and every one of them is
// BLP-sampled.
func TestNewAcceptsSixteenApps(t *testing.T) {
	cfg := config.Default()
	ps := twoApps(t)
	many, alloc := make([]kernels.Profile, 16), make([]int, 16)
	for i := range many {
		many[i], alloc[i] = ps[0], 1
	}
	g, err := New(cfg, many, alloc, 1)
	if err != nil {
		t.Fatalf("16 apps rejected: %v", err)
	}
	g.Run(5_000)
	var samples uint64
	for _, p := range g.parts {
		samples += p.mc.Counters(15).BLPSamples
	}
	if samples == 0 {
		t.Fatal("app 15 never BLP-sampled")
	}
}

// TestMaxAppsMatchesController: sim.maxApps and the controller's own bound
// are two constants; this fails if they drift, before New can accept a
// workload that panics inside dram.NewController.
func TestMaxAppsMatchesController(t *testing.T) {
	cfg := config.Default()
	amap := memreq.NewAddrMap(cfg.L2.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
	panics := func(apps int) (p bool) {
		defer func() { p = recover() != nil }()
		dram.NewController(cfg.Mem, amap, 0, apps)
		return
	}
	if panics(maxApps) {
		t.Errorf("dram.NewController rejects %d apps, which sim.New accepts", maxApps)
	}
	if !panics(maxApps + 1) {
		t.Errorf("dram.NewController accepts %d apps, which sim.New rejects", maxApps+1)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	ps := twoApps(t)
	run := func() *Result {
		g, err := New(cfg, ps, []int{8, 8}, 42)
		if err != nil {
			t.Fatal(err)
		}
		g.Run(30_000)
		return g.FinishRun()
	}
	r1, r2 := run(), run()
	for i := range r1.Apps {
		if r1.Apps[i].Instructions != r2.Apps[i].Instructions ||
			r1.Apps[i].Served != r2.Apps[i].Served {
			t.Fatalf("nondeterministic run: %+v vs %+v", r1.Apps[i], r2.Apps[i])
		}
	}
	if r1.BusIdle != r2.BusIdle || r1.BusWasted != r2.BusWasted {
		t.Fatal("nondeterministic bus accounting")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := config.Default()
	ps := twoApps(t)
	g1, _ := New(cfg, ps, []int{8, 8}, 1)
	g1.Run(30_000)
	r1 := g1.FinishRun()
	g2, _ := New(cfg, ps, []int{8, 8}, 99)
	g2.Run(30_000)
	r2 := g2.FinishRun()
	if r1.Apps[0].Instructions == r2.Apps[0].Instructions &&
		r1.Apps[1].Instructions == r2.Apps[1].Instructions {
		t.Fatal("different seeds produced identical instruction counts")
	}
}

func TestSnapshotConsistency(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	ps := twoApps(t)
	g, err := New(cfg, ps, []int{8, 8}, 1, WithPriorityEpochs())
	if err != nil {
		t.Fatal(err)
	}
	g.Run(40_000)
	res := g.FinishRun()
	if len(res.Snapshots) != 4 {
		t.Fatalf("snapshots = %d, want 4", len(res.Snapshots))
	}
	for si, s := range res.Snapshots {
		if s.IntervalCycles != 10_000 {
			t.Fatalf("snapshot %d interval = %d", si, s.IntervalCycles)
		}
		for i, a := range s.Apps {
			// Each app owns 8 SMs the whole run.
			if a.SMs != 8 {
				t.Fatalf("snapshot %d app %d SMs = %d", si, i, a.SMs)
			}
			if a.SMCycles != 8*10_000 {
				t.Fatalf("snapshot %d app %d SMCycles = %d", si, i, a.SMCycles)
			}
			if a.Alpha < 0 || a.Alpha > 1 {
				t.Fatalf("alpha out of range: %v", a.Alpha)
			}
			if a.PrioCycles == 0 {
				t.Fatalf("priority epochs enabled but app %d got no priority cycles", i)
			}
			if a.BLP < a.BLPAccess {
				t.Fatalf("BLP %v < BLPAccess %v", a.BLP, a.BLPAccess)
			}
		}
		if s.BusCycles != uint64(cfg.NumMCs)*10_000 {
			t.Fatalf("bus cycles = %d", s.BusCycles)
		}
	}
}

func TestIntervalHookRuns(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 5_000
	ps := twoApps(t)
	g, err := New(cfg, ps, []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	g.IntervalHook = func(gg *GPU, snap *IntervalSnapshot) {
		calls++
		if gg != g || snap == nil {
			t.Fatal("bad hook arguments")
		}
	}
	g.Run(20_000)
	if calls != 4 {
		t.Fatalf("hook ran %d times, want 4", calls)
	}
}

func TestAllocationAccessors(t *testing.T) {
	cfg := config.Default()
	ps := twoApps(t)
	g, err := New(cfg, ps, []int{10, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc := g.Allocation()
	if alloc[0] != 10 || alloc[1] != 6 {
		t.Fatalf("Allocation = %v", alloc)
	}
	if len(g.Apps()) != 2 || g.Cycle() != 0 {
		t.Fatal("accessors broken")
	}
	if err := g.SetAllocation([]int{20, 6}); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if err := g.SetAllocation([]int{6, 10}); err != nil {
		t.Fatal(err)
	}
	alloc = g.Allocation()
	if alloc[0] != 6 || alloc[1] != 10 {
		t.Fatalf("desired allocation = %v", alloc)
	}
	for _, n := range []uint64{5_000, 1} {
		before := g.Cycle()
		g.Run(n)
		if got := g.Cycle() - before; got != n {
			t.Fatalf("Run(%d) advanced Cycle by %d", n, got)
		}
	}
}

// TestSnapshotAccessors checks the GPU's configuration and snapshot views,
// and each snapshot-derived quantity against the counters it sums.
func TestSnapshotAccessors(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 2_000
	g, err := New(cfg, twoApps(t), []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Config() != cfg {
		t.Fatalf("Config() = %+v, want the configuration the GPU was built with", g.Config())
	}
	g.Run(4_000)
	snaps := g.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("Snapshots() holds %d intervals, want 2", len(snaps))
	}
	s := &snaps[1]
	var served uint64
	for _, a := range s.Apps {
		served += a.Served
	}
	if served == 0 || s.TotalServed() != served {
		t.Fatalf("TotalServed = %d, apps sum to %d", s.TotalServed(), served)
	}
	// Eq. 20 at the default config: 1 line/cycle aggregate × the 0.6 derate.
	if got, want := s.RequestMax(), 1.0*float64(s.IntervalCycles)*0.6; got != want {
		t.Fatalf("RequestMax = %v, Eq. 20 gives %v", got, want)
	}
}

func TestEvenAllocation(t *testing.T) {
	if got := EvenAllocation(16, 2); got[0] != 8 || got[1] != 8 {
		t.Fatalf("EvenAllocation(16,2) = %v", got)
	}
	got := EvenAllocation(16, 3)
	if got[0] != 6 || got[1] != 5 || got[2] != 5 {
		t.Fatalf("EvenAllocation(16,3) = %v", got)
	}
}

func TestPartialFinalInterval(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	ps := twoApps(t)
	g, _ := New(cfg, ps, []int{8, 8}, 1)
	g.Run(15_000) // one full interval + half
	res := g.FinishRun()
	if len(res.Snapshots) != 2 {
		t.Fatalf("snapshots = %d, want 2 (one partial)", len(res.Snapshots))
	}
	if res.Snapshots[1].IntervalCycles != 5_000 {
		t.Fatalf("partial interval = %d", res.Snapshots[1].IntervalCycles)
	}
}

func TestLaunchesRestartKernel(t *testing.T) {
	cfg := config.Default()
	p, _ := kernels.ByAbbr("QR")
	p.Blocks = 4
	p.InstPerWarp = 50
	g, err := New(cfg, []kernels.Profile{p}, []int{16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(100_000)
	if g.Apps()[0].Launches() < 2 {
		t.Fatalf("tiny kernel should have relaunched, launches = %d", g.Apps()[0].Launches())
	}
}

func TestFourApps(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	var ps []kernels.Profile
	for _, ab := range []string{"QR", "CT", "BG", "SD"} {
		p, _ := kernels.ByAbbr(ab)
		ps = append(ps, p)
	}
	res, err := RunShared(cfg, ps, []int{4, 4, 4, 4}, 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Apps {
		if a.Instructions == 0 {
			t.Fatalf("app %d idle in four-app mix", i)
		}
	}
}
