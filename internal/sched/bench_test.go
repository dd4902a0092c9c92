package sched

import "testing"

// BenchmarkPartitionSearch measures the DASE-Fair partition search for four
// applications on 16 SMs through the allocating entry point: a 4×13
// reciprocal table, then a pruned walk over the C(15,3) = 455 candidate
// partitions (DESIGN.md §5.1).
func BenchmarkPartitionSearch(b *testing.B) {
	slow := []float64{3.2, 1.4, 2.1, 1.1}
	cur := []int{4, 4, 4, 4}
	for i := 0; i < b.N; i++ {
		SearchBestPartition(slow, cur, 16, 1)
	}
}
