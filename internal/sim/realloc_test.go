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
// SMs drain; the pass that finds them all settled lowers it; an idle SM that
// is to have no owner keeps its old one and the flag with it.
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
	if !g.reassigning {
		t.Fatal("four SMs want no owner and keep their old one, so the pass must keep running")
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
