package sim

import (
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
)

// TestReallocationMovesMinimalSMs: shrinking app 0 from 10 to 8 SMs must
// reassign exactly two SMs and leave the other fourteen owners untouched.
func TestReallocationMovesMinimalSMs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := config.Default()
	ps := twoApps(t)
	g, err := New(cfg, ps, []int{10, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	before := g.Owners()
	if err := g.SetAllocation([]int{8, 8}); err != nil {
		t.Fatal(err)
	}
	g.Run(150_000) // allow draining to complete
	after := g.Owners()

	moved := 0
	for i := range before {
		if before[i] != after[i] {
			moved++
			if before[i] != 0 || after[i] != 1 {
				t.Fatalf("SM %d moved %v->%v; only app0->app1 moves expected", i, before[i], after[i])
			}
		}
	}
	if moved != 2 {
		t.Fatalf("%d SMs changed owner, want exactly 2", moved)
	}
	if g.reassigning {
		t.Fatal("reassignment finished but step still walks the SMs for it")
	}
	alloc := g.Allocation()
	if alloc[0] != 8 || alloc[1] != 8 {
		t.Fatalf("allocation = %v", alloc)
	}
}

// TestReassigningOnlyWhileOutstanding: step runs the reassignment pass only
// while some SM lacks its desired owner. SetAllocation raises the flag while
// SMs drain; the pass that finds them all settled lowers it, also when the
// settled SMs are to have no owner and were released.
func TestReassigningOnlyWhileOutstanding(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	g, err := New(config.Default(), twoApps(t), []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.reassigning {
		t.Fatal("a new GPU has nothing to reassign")
	}
	g.Run(10_000)
	if err := g.SetAllocation([]int{6, 10}); err != nil {
		t.Fatal(err)
	}
	if !g.reassigning {
		t.Fatal("SetAllocation left two busy SMs to drain but no pass pending")
	}
	g.Run(150_000)
	if g.reassigning {
		t.Fatalf("owners %v match the allocation, yet the pass still runs", g.Owners())
	}
	if err := g.SetAllocation([]int{6, 6}); err != nil {
		t.Fatal(err)
	}
	g.Run(150_000)
	if g.reassigning {
		t.Fatalf("owners %v: the four SMs that want no owner are released, yet the pass still runs", g.Owners())
	}
}

// TestUnownedSMsAreReleased: an SM the allocation leaves without an owner is
// released once idle, so its owner is InvalidApp and its idle cycles are no
// app's. SB+SD at 8+8 shrunk to 8+4 leaves app 1 with four SMs' cycles per
// interval, not eight.
func TestUnownedSMsAreReleased(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sb, _ := kernels.ByAbbr("SB")
	sd, _ := kernels.ByAbbr("SD")
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	g, err := New(cfg, []kernels.Profile{sb, sd}, []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	if err := g.SetAllocation([]int{8, 4}); err != nil {
		t.Fatal(err)
	}
	g.Run(400_000) // SD's four SMs take 200K-300K cycles to drain
	counts := map[memreq.AppID]int{}
	for _, o := range g.Owners() {
		counts[o]++
	}
	if counts[0] != 8 || counts[1] != 4 || counts[memreq.InvalidApp] != 4 {
		t.Fatalf("owners %v, want app 0 on 8 SMs, app 1 on 4 and 4 released", g.Owners())
	}
	snaps := g.Snapshots()
	last := snaps[len(snaps)-1]
	if a := last.Apps[1]; a.SMs != 4 || a.SMCycles != 4*last.IntervalCycles {
		t.Fatalf("app 1 reads %d SMs and %d SM-cycles over a %d-cycle interval, want 4 SMs' worth", a.SMs, a.SMCycles, last.IntervalCycles)
	}
}

// TestOwnersMatchAllocation: owner counts always agree with Allocation once
// draining settles.
func TestOwnersMatchAllocation(t *testing.T) {
	cfg := config.Default()
	ps := twoApps(t)
	g, err := New(cfg, ps, []int{12, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(30_000)
	counts := map[memreq.AppID]int{}
	for _, o := range g.Owners() {
		counts[o]++
	}
	if counts[0] != 12 || counts[1] != 4 {
		t.Fatalf("owner counts %v", counts)
	}
}

// TestCancelledReallocationUndrains: flipping the allocation back before
// draining completes must leave all SMs productive.
func TestCancelledReallocationUndrains(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := config.Default()
	sb, _ := kernels.ByAbbr("SB")
	ct, _ := kernels.ByAbbr("CT")
	g, err := New(cfg, []kernels.Profile{sb, ct}, []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	if err := g.SetAllocation([]int{4, 12}); err != nil {
		t.Fatal(err)
	}
	g.Run(1_000) // mid-drain
	if err := g.SetAllocation([]int{8, 8}); err != nil {
		t.Fatal(err)
	}
	g.Run(120_000)
	alloc := g.Allocation()
	if alloc[0] != 8 || alloc[1] != 8 {
		t.Fatalf("allocation = %v after cancellation", alloc)
	}
	res := g.FinishRun()
	for i, a := range res.Apps {
		if a.Instructions == 0 {
			t.Fatalf("app %d made no progress through cancelled reallocation", i)
		}
	}
}
