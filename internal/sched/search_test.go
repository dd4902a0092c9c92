package sched

import (
	"context"
	"testing"
	"testing/quick"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
)

func TestSearchInfeasible(t *testing.T) {
	if best, _ := new(PartitionSearch).Fair([]float64{2, 2}, []int{8, 8}, 1, 1); best != nil {
		t.Fatalf("infeasible search returned %v", best)
	}
	if best, _ := new(PartitionSearch).Fair(nil, nil, 16, 1); best != nil {
		t.Fatal("empty search returned a partition")
	}
	// minSMs*n wraps to 0 here; the search must still see no composition.
	for _, n := range []int{2, 4} {
		slow, cur := make([]float64, n), make([]int, n)
		if best, _ := new(PartitionSearch).Fair(slow, cur, 16, 1<<62); best != nil {
			t.Fatalf("%d apps at minSMs 2^62 returned %v", n, best)
		}
	}
}

func TestSearchMinSMsRespected(t *testing.T) {
	best, _ := new(PartitionSearch).Fair([]float64{100, 1}, []int{8, 8}, 16, 3)
	if best == nil {
		t.Fatal("no partition")
	}
	for i, v := range best {
		if v < 3 {
			t.Fatalf("app %d got %d SMs, below MinSMs", i, v)
		}
	}
}

func TestSearchEqualSlowdownsPrefersBalance(t *testing.T) {
	best, unf := new(PartitionSearch).Fair([]float64{2, 2}, []int{8, 8}, 16, 1)
	if best[0] != 8 || best[1] != 8 {
		t.Fatalf("equal slowdowns should keep the even split, got %v", best)
	}
	if unf > 1.0001 {
		t.Fatalf("even split of equal apps predicted unfair: %v", unf)
	}
}

// TestSearchPartitionProperties: the returned partition always uses all SMs,
// respects MinSMs, and its predicted unfairness is no worse than the
// current allocation's prediction.
func TestSearchPartitionProperties(t *testing.T) {
	f := func(s1, s2, s3 uint8) bool {
		slow := []float64{
			1 + float64(s1%40)/10,
			1 + float64(s2%40)/10,
			1 + float64(s3%40)/10,
		}
		cur := []int{6, 5, 5}
		best, unf := new(PartitionSearch).Fair(slow, cur, 16, 1)
		if best == nil {
			return false
		}
		sum := 0
		for _, v := range best {
			if v < 1 {
				return false
			}
			sum += v
		}
		if sum != 16 {
			return false
		}
		curUnf := EstimatedUnfairness(slow, cur, cur, 16)
		return unf <= curUnf+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReciprocalAtEdges(t *testing.T) {
	if got := ReciprocalAt(0.5, 0, 4, 16); got != 0 {
		t.Fatalf("zero current SMs should give 0, got %v", got)
	}
	if got := ReciprocalAt(0.5, 8, 0, 16); got != 0 {
		t.Fatalf("zero target SMs should give 0, got %v", got)
	}
	// Monotone in x.
	prev := -1.0
	for x := 0; x <= 16; x++ {
		v := ReciprocalAt(0.4, 8, x, 16)
		if v < prev {
			t.Fatalf("ReciprocalAt not monotone at x=%d: %v < %v", x, v, prev)
		}
		prev = v
	}
}

// TestDASEFairHysteresis runs Example_fairsched's VA+CT setup, which
// settles on 5+11 at the default threshold: with an improvement threshold
// no prediction can clear, the policy must never move off the even split.
func TestDASEFairHysteresis(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	va, _ := kernels.ByAbbr("VA")
	ct, _ := kernels.ByAbbr("CT")
	pol := NewDASEFair()
	if pol.Name() != "DASE-Fair" {
		t.Fatal("name")
	}
	pol.ImprovementThreshold = 10 // a required unfairness reduction above 100%
	res, err := Run(context.Background(), cfg, []kernels.Profile{va, ct}, []int{8, 8}, 40_000, 1, pol)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Snapshots[len(res.Snapshots)-1]
	if pol.Reallocations != 0 || final.Apps[0].SMs != 8 || final.Apps[1].SMs != 8 {
		t.Fatalf("threshold 10: %d reallocations, final %d+%d; want 0 and 8+8",
			pol.Reallocations, final.Apps[0].SMs, final.Apps[1].SMs)
	}

	// Warmup: the body, which would dereference the nil GPU and snapshot,
	// must not run within the warmup intervals.
	pol = NewDASEFair()
	pol.WarmupIntervals = 1000
	pol.OnInterval(nil, nil)
	if pol.Reallocations != 0 {
		t.Fatal("reallocated during warmup")
	}
}
