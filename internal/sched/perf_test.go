package sched

import (
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sim"
)

func TestSearchBestThroughputFavoursScalableApp(t *testing.T) {
	// App 0 slows 4x (lots of headroom from more SMs under the linear
	// model); app 1 barely slows. Throughput search gives app 0 more SMs
	// because its reciprocal gains more per SM.
	var ps PartitionSearch
	best, ws := ps.search([]float64{4, 1.05}, []int{8, 8}, 16, 1, false)
	if best == nil {
		t.Fatal("no partition")
	}
	if ws <= 0 {
		t.Fatalf("weighted speedup %v", ws)
	}
	if best[0]+best[1] != 16 {
		t.Fatalf("partition %v", best)
	}
	cur := estimatedWeightedSpeedup([]float64{4, 1.05}, []int{8, 8}, []int{8, 8}, 16)
	if ws < cur {
		t.Fatalf("search found worse throughput than current: %v < %v", ws, cur)
	}
}

func TestDASEPerfImprovesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("slow policy run")
	}
	cfg := config.Default()
	va, _ := kernels.ByAbbr("VA")
	ct, _ := kernels.ByAbbr("CT")
	ps := []kernels.Profile{va, ct}
	cycles := uint64(500_000)

	aloneIPC := make([]float64, 2)
	for i, prof := range ps {
		res, err := sim.RunAlone(cfg, prof, cycles, 1)
		if err != nil {
			t.Fatal(err)
		}
		aloneIPC[i] = res.Apps[0].IPC
	}
	wsOf := func(resApps []float64) float64 {
		return metrics.WeightedSpeedup(resApps)
	}

	even, err := Run(cfg, ps, []int{8, 8}, cycles, 1, Even{})
	if err != nil {
		t.Fatal(err)
	}
	pol := NewDASEPerf()
	perf, err := Run(cfg, ps, []int{8, 8}, cycles, 1, pol)
	if err != nil {
		t.Fatal(err)
	}
	evenWS := wsOf([]float64{
		metrics.Slowdown(aloneIPC[0], even.Apps[0].IPC),
		metrics.Slowdown(aloneIPC[1], even.Apps[1].IPC),
	})
	perfWS := wsOf([]float64{
		metrics.Slowdown(aloneIPC[0], perf.Apps[0].IPC),
		metrics.Slowdown(aloneIPC[1], perf.Apps[1].IPC),
	})
	t.Logf("weighted speedup: even=%.3f perf=%.3f reallocs=%d", evenWS, perfWS, pol.Reallocations)
	if pol.Name() != "DASE-Perf" {
		t.Fatal("name")
	}
	if perfWS < evenWS*0.98 {
		t.Fatalf("DASE-Perf lost throughput: %.3f vs %.3f", perfWS, evenWS)
	}
}
