package metrics_test

import (
	"fmt"

	"dasesim/internal/metrics"
)

// ExampleSlowdown shows the paper's Eq. 1.
func ExampleSlowdown() {
	// An app retires 8.0 IPC alone but only 2.5 IPC when sharing the GPU.
	fmt.Printf("%.2f\n", metrics.Slowdown(8.0, 2.5))
	// Output: 3.20
}

// ExampleUnfairness shows the paper's Eq. 2 with its §3 example values.
func ExampleUnfairness() {
	fmt.Printf("%.2f\n", metrics.Unfairness([]float64{3.44, 1.37}))
	// Output: 2.51
}

// ExampleHarmonicSpeedup shows the paper's Eq. 27.
func ExampleHarmonicSpeedup() {
	fmt.Printf("%.2f\n", metrics.HarmonicSpeedup([]float64{2, 2}))
	// Output: 0.50
}

// ExampleError shows the paper's Eq. 26, the estimation error.
func ExampleError() {
	fmt.Printf("%.1f%%\n", metrics.Error(2.2, 2.0)*100)
	// Output: 10.0%
}
