package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dasesim/internal/refmodel"
)

// warmSearch is reused across fuzz executions so a table, partition or
// incumbent left over from the previous shape would show as a divergence.
var warmSearch PartitionSearch

// checkAgainstOracle runs every entry point of the search on one input and
// requires the partition and the score's bits to equal the exhaustive
// oracle's.
func checkAgainstOracle(t *testing.T, slow []float64, cur []int, total, minSMs int) {
	t.Helper()
	n := len(slow)
	same := func(entry string, got []int, gotScore float64, want []int, wantScore float64) {
		t.Helper()
		if (got == nil) != (want == nil) || !slices.Equal(got, want) ||
			math.Float64bits(gotScore) != math.Float64bits(wantScore) {
			t.Fatalf("%s(slow=%v cur=%v total=%d minSMs=%d) = %v %v (%#x), oracle %v %v (%#x)",
				entry, slow, cur, total, minSMs, got, gotScore, math.Float64bits(gotScore),
				want, wantScore, math.Float64bits(wantScore))
		}
	}
	want, wantUnf := refmodel.ExhaustivePartition(slow, cur, total, minSMs)
	got, unf := new(PartitionSearch).Fair(slow, cur, total, minSMs)
	same("fresh Fair", got, unf, want, wantUnf)
	got, unf = SearchBestPartitionScratch(slow, cur, total, minSMs, make([]int, n), make([]int, n))
	same("SearchBestPartitionScratch", got, unf, want, wantUnf)
	got, unf = warmSearch.Fair(slow, cur, total, minSMs)
	same("warm Fair", got, unf, want, wantUnf)
}

// FuzzPartitionSearch is the differential check of the table + threshold
// sweep against refmodel's score-every-candidate loop, on up to five apps.
// The seed corpus (testdata/fuzz) holds the edge cases the sweep's
// argument has to survive (DESIGN.md §5.1); CI replays it under -race and
// fuzzes it time-boxed.
func FuzzPartitionSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, total, minSMs int,
		s0, s1, s2, s3, s4 float64, c0, c1, c2, c3, c4 int) {
		// Keep the oracle's enumeration small: at most C(35,4) candidates.
		n %= 6
		total = bound(total, -2, 24)
		minSMs = bound(minSMs, -1, 6)
		slow := []float64{s0, s1, s2, s3, s4}[:n]
		cur := []int{c0, c1, c2, c3, c4}[:n]
		for i := range cur {
			cur[i] = bound(cur[i], -1, 26)
		}
		checkAgainstOracle(t, slow, cur, total, minSMs)
	})
}

// bound folds v into [lo, hi].
func bound(v, lo, hi int) int {
	span := hi - lo + 1
	return lo + ((v-lo)%span+span)%span
}

// TestSearchMatchesOracleRandom is the fuzz target's property on a fixed
// random sample, so plain `go test` covers ordinary, tie-heavy and
// degenerate inputs without the fuzzing engine.
func TestSearchMatchesOracleRandom(t *testing.T) {
	cases := 200_000
	if testing.Short() {
		cases = 2_000
	}
	rng := rand.New(rand.NewSource(1))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 0.5, 1, 1e300, math.MaxFloat64}
	for c := 0; c < cases; c++ {
		n := rng.Intn(6)
		total, minSMs := rng.Intn(22)-1, rng.Intn(4)-1
		slow, cur := make([]float64, n), make([]int, n)
		for i := range slow {
			switch rng.Intn(8) {
			case 0:
				slow[i] = special[rng.Intn(len(special))]
			case 1, 2:
				slow[i] = 1 + float64(rng.Intn(4))/2 // few values: exact ties
			default:
				slow[i] = 1 + 5*rng.Float64()
			}
			cur[i] = rng.Intn(total+4) - 1
			if rng.Intn(3) == 0 && total > 0 {
				cur[i] = total / max(n, 1) // the even split: symmetric apps tie
			}
		}
		checkAgainstOracle(t, slow, cur, total, minSMs)
	}
}

// TestSearchTiesKeepEarliest pins the enumeration order where it is
// observable: with equal slowdowns, permuting identical apps' shares ties
// exactly, and the winner must be the lexicographically first of the tied
// candidates — what an ascending scan with strict-< replacement returns.
func TestSearchTiesKeepEarliest(t *testing.T) {
	for _, tc := range []struct {
		cur         []int
		total, minS int
		want        []int
	}{
		{[]int{5, 5, 5}, 16, 1, []int{5, 5, 6}},
		{[]int{4, 4, 4}, 14, 1, []int{4, 5, 5}},
		{[]int{6, 6, 6}, 16, 2, []int{5, 5, 6}},
		{[]int{0, 5, 5}, 16, 1, []int{1, 1, 14}}, // every candidate starved
	} {
		slow := []float64{2, 2, 2}
		var tied [][]int // every candidate scoring the minimum, in ascending lexicographic order
		minUnf := math.Inf(1)
		for a := tc.minS; a <= tc.total-2*tc.minS; a++ {
			for b := tc.minS; b <= tc.total-a-tc.minS; b++ {
				cand := []int{a, b, tc.total - a - b}
				u := EstimatedUnfairness(slow, tc.cur, cand, tc.total)
				if u < minUnf {
					minUnf, tied = u, tied[:0]
				}
				if u == minUnf {
					tied = append(tied, cand)
				}
			}
		}
		if len(tied) < 2 {
			t.Fatalf("cur=%v total=%d: only %d candidate(s) at the minimum — the case pins nothing", tc.cur, tc.total, len(tied))
		}
		best, unf := new(PartitionSearch).Fair(slow, tc.cur, tc.total, tc.minS)
		if !slices.Equal(best, tied[0]) || !slices.Equal(best, tc.want) || unf != minUnf {
			t.Errorf("cur=%v total=%d: got %v (%v), want the earliest of %d tied candidates %v = %v (%v)",
				tc.cur, tc.total, best, unf, len(tied), tied[0], tc.want, minUnf)
		}
	}
}

// TestSearchZeroAlloc: the scratch entry allocates nothing while the table
// fits its stack buffer, and a warm PartitionSearch allocates nothing at
// any shape — including one whose table is far larger than that buffer.
func TestSearchZeroAlloc(t *testing.T) {
	slow4, cur4 := []float64{3.2, 1.4, 2.1, 1.1}, []int{4, 4, 4, 4}
	best, cand := make([]int, 4), make([]int, 4)
	if a := testing.AllocsPerRun(100, func() {
		SearchBestPartitionScratch(slow4, cur4, 16, 1, best, cand)
	}); a != 0 {
		t.Errorf("SearchBestPartitionScratch 4 apps × 16 SMs: %v allocs/op, want 0", a)
	}

	slow8 := []float64{3.2, 1.4, 2.1, 1.1, 1.9, 2.7, 1.2, 4.0}
	cur8 := []int{16, 16, 16, 16, 16, 16, 16, 16}
	var ps PartitionSearch
	if 8*(128-8*14+1) <= stackTable {
		t.Fatal("the large shape fits the stack table; pick a larger one")
	}
	for _, tc := range []struct {
		name          string
		slow          []float64
		cur           []int
		total, minSMs int
	}{
		{"4 apps × 16 SMs", slow4, cur4, 16, 1},
		{"8 apps × 128 SMs", slow8, cur8, 128, 14},
	} {
		ps.Fair(tc.slow, tc.cur, tc.total, tc.minSMs) // warm
		if a := testing.AllocsPerRun(10, func() {
			ps.Fair(tc.slow, tc.cur, tc.total, tc.minSMs)
		}); a != 0 {
			t.Errorf("warm PartitionSearch.Fair %s: %v allocs/op, want 0", tc.name, a)
		}
	}
}
