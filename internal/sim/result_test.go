package sim_test

import (
	"context"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
)

// TestResultSumsSnapshots: a result is a function of its snapshots. Every
// run total of Result — the bus decomposition, and each app's served
// requests, data cycles, bandwidth share and row-hit rate — equals its sum
// over Result.Snapshots, whose intervals tile the run, the partial last one
// included. It checks a static pair (sim.RunShared) and a DASE-Fair run
// that repartitions SMs (sched.Run).
func TestResultSumsSnapshots(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	const cycles = 45_000 // 4 full intervals and a 5K-cycle partial one
	for _, tc := range []struct {
		name  string
		abbrs []string
		alloc []int
		pol   sched.Policy
	}{
		{"pair", []string{"SB", "SD"}, []int{8, 8}, nil},
		{"dase-fair", []string{"VA", "CT"}, []int{2, 14}, sched.NewDASEFair()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := make([]kernels.Profile, len(tc.abbrs))
			for i, ab := range tc.abbrs {
				ps[i], _ = kernels.ByAbbr(ab)
			}
			var res *sim.Result
			var err error
			if tc.pol == nil {
				res, err = sim.RunShared(cfg, ps, tc.alloc, cycles, 1)
			} else {
				res, err = sched.Run(context.Background(), cfg, ps, tc.alloc, cycles, 1, tc.pol)
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Snapshots); n != 5 || res.Snapshots[n-1].IntervalCycles != 5_000 || res.Snapshots[n-1].Cycle != res.Cycles {
				t.Fatalf("%d snapshots, want 4 full ones and a 5K-cycle partial one ending the run", n)
			}
			var span, bus, wasted, idle uint64
			served := make([]uint64, len(ps))
			data := make([]uint64, len(ps))
			hits := make([]uint64, len(ps))
			misses := make([]uint64, len(ps))
			moved := false
			for _, s := range res.Snapshots {
				span += s.IntervalCycles
				bus += s.BusCycles
				wasted += s.BusWasted
				idle += s.BusIdle
				for i, a := range s.Apps {
					served[i] += a.Served
					data[i] += a.DataCycles
					hits[i] += a.RowHits
					misses[i] += a.RowMisses
					moved = moved || a.SMs != tc.alloc[i]
				}
			}
			if span != res.Cycles {
				t.Errorf("snapshots span %d cycles, the run %d", span, res.Cycles)
			}
			if tc.pol != nil && !moved {
				t.Error("DASE-Fair never repartitioned the skewed start")
			}
			if res.BusCycles != bus || res.BusWasted != wasted || res.BusIdle != idle {
				t.Errorf("bus cycles/wasted/idle = %d/%d/%d, snapshots sum to %d/%d/%d",
					res.BusCycles, res.BusWasted, res.BusIdle, bus, wasted, idle)
			}
			for i, a := range res.Apps {
				if a.Served != served[i] || a.DataCycles != data[i] {
					t.Errorf("app %d: served %d, data %d; snapshots sum to %d, %d", i, a.Served, a.DataCycles, served[i], data[i])
				}
				if want := float64(data[i]) / float64(bus); a.BWUtil != want {
					t.Errorf("app %d: BWUtil %v, snapshots give %v", i, a.BWUtil, want)
				}
				if want := float64(hits[i]) / float64(hits[i]+misses[i]); a.RowHitRate != want {
					t.Errorf("app %d: RowHitRate %v, snapshots give %v", i, a.RowHitRate, want)
				}
			}
		})
	}
}
