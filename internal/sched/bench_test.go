package sched

import "testing"

// BenchmarkPartitionSearch measures the DASE-Fair partition search for four
// applications on 16 SMs on a cold scratch, allocation included: a 4×13
// reciprocal table, then the threshold sweep over it (DESIGN.md §5.1). The
// warm search on the inputs a real batch yields is estimate's
// BenchmarkBatch16x4/search.
func BenchmarkPartitionSearch(b *testing.B) {
	slow := []float64{3.2, 1.4, 2.1, 1.1}
	cur := []int{4, 4, 4, 4}
	for i := 0; i < b.N; i++ {
		var ps PartitionSearch
		ps.Fair(slow, cur, 16, 1)
	}
}

// BenchmarkPartitionSearchTwoApps measures the fleet's usual repartition,
// two apps on 16 SMs, on a warm PartitionSearch: fifteen compositions
// scored in turn, with no table.
func BenchmarkPartitionSearchTwoApps(b *testing.B) {
	slow := []float64{2.6, 1.3}
	cur := []int{8, 8}
	var ps PartitionSearch
	for i := 0; i < b.N; i++ {
		ps.Fair(slow, cur, 16, 1)
	}
}
