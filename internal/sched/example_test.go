package sched_test

import (
	"fmt"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sched"
)

// ExampleLeftoverAllocation shows why the LEFTOVER policy of current GPUs
// fails to provide concurrency: a large kernel first leaves nothing over.
func ExampleLeftoverAllocation() {
	cfg := config.Default()
	sb, _ := kernels.ByAbbr("SB") // thousands of thread blocks
	sn, _ := kernels.ByAbbr("SN") // 24 thread blocks
	fmt.Println(sched.LeftoverAllocation(cfg, []kernels.Profile{sb, sn}))
	fmt.Println(sched.LeftoverAllocation(cfg, []kernels.Profile{sn, sb}))
	// Output:
	// [16 0]
	// [4 12]
}
