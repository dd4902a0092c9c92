package core

import (
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
)

// BenchmarkDASEEstimate measures one estimator invocation on a live
// snapshot: the last interval of a 60K-cycle SB+SD run on an 8/8 split.
func BenchmarkDASEEstimate(b *testing.B) {
	sb, _ := kernels.ByAbbr("SB")
	sd, _ := kernels.ByAbbr("SD")
	res, err := sim.RunShared(config.Default(), []kernels.Profile{sb, sd}, []int{8, 8}, 60_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	snap := &res.Snapshots[len(res.Snapshots)-1]
	d := New(Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Estimate(snap)
	}
}
