package sim_test

import (
	"fmt"

	"dasesim/internal/sim"
)

// ExampleEvenAllocation shows the default SM partitioning scheme.
func ExampleEvenAllocation() {
	fmt.Println(sim.EvenAllocation(16, 3))
	// Output: [6 5 5]
}
