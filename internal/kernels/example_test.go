package kernels_test

import (
	"fmt"

	"dasesim/internal/kernels"
)

// ExampleByAbbr looks up a Table III workload.
func ExampleByAbbr() {
	p, ok := kernels.ByAbbr("SD")
	fmt.Println(ok, p.Name)
	// Output: true srad
}
