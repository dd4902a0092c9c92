package sched

import (
	"math"
	"slices"
)

// The partition search behind DASE-Fair, POST /v1/estimate and the fleet's
// per-interval repartition. The objective is separable: an app's
// interpolated reciprocal depends only on (app, SM count), so it is
// tabulated once per call, and every table row is nondecreasing, so the
// best MAX/MIN ratio is found by sweeping a threshold over the table
// instead of enumerating compositions. DESIGN.md §5.1 carries the argument
// for why the result is bit-identical to scoring every candidate with
// EstimatedUnfairness (refmodel.ExhaustivePartition). Two apps, the fleet's
// usual repartition, skip the table: their compositions are scored in turn.

// starvedUnfairness is the score of a partition that leaves some app with a
// non-positive reciprocal: infinitely unfair, but finite so it still orders.
const starvedUnfairness = 1e18

// ReciprocalAt interpolates the reciprocal of an app's slowdown at x SMs
// from its current estimate at cur SMs out of total (Eqs. 29-30): linear to
// reciprocal 1 at all SMs and to 0 at zero SMs.
func ReciprocalAt(recipCur float64, cur, x, total int) float64 {
	if cur <= 0 {
		return 0
	}
	if x == cur {
		return recipCur
	}
	if x > cur {
		if total == cur {
			return recipCur
		}
		return recipCur + float64(x-cur)/float64(total-cur)*(1-recipCur)
	}
	return recipCur - float64(cur-x)/float64(cur)*recipCur
}

// EstimatedUnfairness predicts MAX/MIN slowdown for a candidate allocation
// given the current estimates (taken at allocation cur).
func EstimatedUnfairness(slow []float64, cur, cand []int, total int) float64 {
	var minR, maxR float64
	for i := range slow {
		r := ReciprocalAt(1/max(slow[i], 1), cur[i], cand[i], total)
		if r <= 0 {
			return starvedUnfairness
		}
		if i == 0 || r < minR {
			minR = r
		}
		if i == 0 || r > maxR {
			maxR = r
		}
	}
	return maxR / minR
}

// PartitionSearch is the reusable scratch of the partition search. The zero
// value is ready; a warm one searches without allocating, so serving paths
// keep one per request scratch, GPU or policy. Not safe for concurrent use.
type PartitionSearch struct {
	// rec[i*w+k] is app i's interpolated reciprocal at minSMs+k SMs, for
	// every share a composition can give it: 0 ≤ k < w. steps (2w) and
	// front (n) are the sweep's.
	rec, steps, front []float64
	// best is the result; cand holds a composition while it is compared
	// with best.
	best, cand []int
	// lo[i] and hi[i] index app i's row: the sweep's bounds on its share.
	lo, hi []int
}

// Fair returns the composition of total SMs into len(slow) parts (each at
// least minSMs) with the lowest EstimatedUnfairness, and that unfairness;
// among equals, the lexicographically first. The partition aliases ps and
// is valid until the next search; it is nil when no composition exists,
// and always for a negative minSMs.
func (ps *PartitionSearch) Fair(slow []float64, cur []int, total, minSMs int) ([]int, float64) {
	n := len(slow)
	ps.best, ps.cand = slices.Grow(ps.best[:0], n)[:n], slices.Grow(ps.cand[:0], n)[:n]
	score, ok := ps.run(slow, cur, total, minSMs)
	if !ok {
		return nil, 0
	}
	return ps.best, score
}

// stackTable is the float buffer SearchBestPartitionScratch keeps on its
// stack, (n+2)·w+n entries for the table and the sweep: 82 for 4 apps × 16
// SMs, at most 98 for any shape of at most 8 apps on 16 SMs. stackApps is
// the app count whose cursors it keeps there.
const (
	stackTable = 128
	stackApps  = 16
)

// SearchBestPartitionScratch is Fair with caller-provided partitions: best
// and cand must each hold at least len(slow) entries, and the returned
// partition aliases best. The table lives on the stack up to stackTable
// entries and on the heap beyond; callers that search larger shapes
// repeatedly keep a PartitionSearch instead.
func SearchBestPartitionScratch(slow []float64, cur []int, total, minSMs int, best, cand []int) ([]int, float64) {
	n := len(slow)
	if len(best) < n || len(cand) < n {
		return nil, 0
	}
	var table [stackTable]float64
	var bounds [2 * stackApps]int
	ps := PartitionSearch{rec: table[:], best: best[:n], cand: cand[:n],
		lo: bounds[:stackApps], hi: bounds[stackApps:]}
	score, ok := ps.run(slow, cur, total, minSMs)
	if !ok {
		return nil, 0
	}
	return best[:n], score
}

// run tabulates the reciprocals and picks the composition into ps.best;
// ps.best and ps.cand must already hold len(slow) entries. It reports the
// score and whether any composition exists.
func (ps *PartitionSearch) run(slow []float64, cur []int, total, minSMs int) (float64, bool) {
	n := len(slow)
	// minSMs > total/n catches a huge minSMs whose product with n wraps;
	// minSMs*n > total is exact otherwise, negative totals included. A
	// negative minSMs would give an app more SMs than total, where
	// ReciprocalAt is not monotone, so it admits no composition.
	if n == 0 || minSMs < 0 || minSMs > total/n || minSMs*n > total {
		return 0, false
	}
	w := total - minSMs*n + 1
	if n == 2 {
		return ps.pair(slow, cur, total, minSMs, w), true
	}
	if cap(ps.rec) < (n+2)*w+n {
		ps.rec = make([]float64, (n+2)*w+n) // not slices.Grow: it would move the caller's stack table to the heap
	}
	if cap(ps.lo) < n {
		ps.lo, ps.hi = make([]int, n), make([]int, n)
	}
	ps.rec, ps.steps, ps.front = ps.rec[:n*w], ps.rec[n*w:(n+2)*w], ps.rec[(n+2)*w:(n+2)*w+n]
	ps.lo, ps.hi = ps.lo[:n], ps.hi[:n]
	for i := range slow {
		r := 1 / max(slow[i], 1)
		row := ps.rec[i*w : (i+1)*w]
		for k := range row {
			row[k] = ReciprocalAt(r, cur[i], minSMs+k, total)
		}
	}
	return ps.choose(n, w, minSMs), true
}

// pair is the search for two apps, whose w compositions differ in one share:
// it scores them in ascending order with EstimatedUnfairness's fold and
// keeps strict improvements, as refmodel.ExhaustivePartition does. With one
// degree of freedom this walk is cheaper than the table and the sweep.
func (ps *PartitionSearch) pair(slow []float64, cur []int, total, minSMs, w int) float64 {
	r0, r1 := 1/max(slow[0], 1), 1/max(slow[1], 1)
	score := 0.0
	for k := range w {
		a := minSMs + k
		u := starvedUnfairness
		// A NaN reciprocal does not starve; app 0's makes the ratio
		// NaN, app 1's drops out of the fold.
		if x, y := ReciprocalAt(r0, cur[0], a, total), ReciprocalAt(r1, cur[1], total-a, total); !(x <= 0 || y <= 0) {
			lo, hi := x, x
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
			u = hi / lo
		}
		if k == 0 || u < score {
			score, ps.best[0], ps.best[1] = u, a, total-a
		}
	}
	return score
}

// choose picks the composition with the lowest score from the table into
// ps.best and returns the score: the lexicographically first among equals,
// exactly as scoring every composition in ascending order and keeping
// strict improvements would. Shares are counted in table columns k (k SMs
// above minSMs), extra = w-1 of them in all. A composition starves when
// some app's entry is ≤ 0 and then scores starvedUnfairness; otherwise it
// scores max/min of its entries, a fold that ignores a NaN row unless it
// is app 0's.
//
// Take thresholds 0 < L ≤ U. An unstarved composition whose entries all
// lie in [L, U] exists iff at most extra entries of the table lie below L,
// at least extra+n lie at or below U, and every row holds an entry in
// [L, U]: app i can take any column from need_i(L), the count of its
// entries below L, to the last whose entry is at or below U. A NaN row
// takes any column, so with one in the table the count at or below U does
// not matter. The lowest score is therefore the minimum, over the entries
// L with at most extra entries below them, of U(L)/L, where U(L) is the
// largest of u0, the (extra+n)th smallest entry, and each row's first
// entry ≥ L.
func (ps *PartitionSearch) choose(n, w, minSMs int) float64 {
	rec, lo, hi, best, cand, front := ps.rec, ps.lo, ps.hi, ps.best, ps.cand, ps.front
	extra := w - 1
	// Each row's cursor lo[i] starts past its starved prefix, the entries
	// ≤ 0; front[i] is the entry there (+Inf past the end or for a NaN
	// row, which so takes no part) and m the largest finite front. A NaN
	// row means no u0: its app can take any column.
	m, limit, sum := math.Inf(-1), extra+n, 0
	for i := range n {
		row, k := rec[i*w:(i+1)*w], 0
		for k < len(row) && row[k] <= 0 {
			k++
		}
		f := math.Inf(1)
		if k < len(row) {
			if f = row[k]; f != f {
				f, limit = math.Inf(1), extra+1
			} else if f > m {
				m = f
			}
		}
		lo[i], front[i], sum = k, f, sum+k
	}
	// The first composition, minSMs everywhere and the rest to the last
	// app, starves if an earlier app does at column 0 or the last at
	// column extra.
	zLast := lo[n-1]
	firstStarved := zLast == w
	for i := range n - 1 {
		firstStarved = firstStarved || lo[i] > 0
	}
	if r0 := rec[0]; r0 != r0 {
		// App 0's row is NaN, and so is every unstarved score: no score
		// is ever below the first candidate's, so it wins.
		writeFirstStarved(best, minSMs, extra, true, zLast)
		if firstStarved {
			return starvedUnfairness
		}
		return r0 / r0
	}

	// Pass 1 merges the rows upward one entry at a time, always from the
	// row with the smallest front (the first such row on ties). A front L
	// seen for the first time while sum, the count of entries passed, is
	// at most extra is a threshold: sum counts the entries below it, and
	// it is recorded with m. The merge stops at u0.
	ls, ms := ps.steps[:w], ps.steps[w:2*w]
	steps, x := 0, 0.0
	for sum < limit {
		j, l := 0, front[0]
		for i := 1; i < n; i++ {
			if front[i] < l {
				j, l = i, front[i]
			}
		}
		if sum <= extra && (steps == 0 || l != ls[steps-1]) {
			ls[steps], ms[steps] = l, m
			steps++
		}
		k, f := lo[j]+1, math.Inf(1)
		if k < w {
			if f = rec[j*w+k]; f > m {
				m = f
			}
		}
		lo[j], front[j], sum, x = k, f, sum+1, l
	}
	u0 := x
	if limit == extra+1 {
		u0 = math.Inf(-1)
	}
	// ms[j] becomes step j's score, U(L)/L.
	score := 0.0
	for j := range steps {
		u := ms[j]
		if u0 > u {
			u = u0
		}
		ms[j] = u / ls[j]
		if j == 0 || ms[j] < score {
			score = ms[j]
		}
	}

	// Some composition starves when the first does or the last app can
	// get fewer SMs than its starved prefix; all score starvedUnfairness.
	starvable := firstStarved || (n > 1 && zLast > 0)
	if steps == 0 || (score > starvedUnfairness && starvable) {
		writeFirstStarved(best, minSMs, extra, firstStarved, zLast)
		return starvedUnfairness
	}
	// Pass 2 takes the first composition of the box of every L reaching
	// score: needs in lo, caps in hi. Both only grow with L, so they
	// resume where the last box left them.
	for i := range n {
		lo[i], hi[i] = 0, -1
		if r := rec[i*w]; r != r {
			hi[i] = extra
		}
	}
	first := true
	for j := range steps {
		if ms[j] != score {
			continue
		}
		l := ls[j]
		for i := range n {
			row := rec[i*w : (i+1)*w]
			k := lo[i]
			for k < len(row) && row[k] < l {
				k++
			}
			lo[i] = k
			// The last column whose entry e has e/l ≤ score; entries
			// below l qualify without a division.
			k = max(hi[i], k-1)
			for k < extra && row[k+1]/l <= score {
				k++
			}
			hi[i] = k
		}
		boxFill(cand, lo, hi, extra, minSMs)
		if first || slices.Compare(cand, best) < 0 {
			copy(best, cand)
			first = false
		}
	}
	if score == starvedUnfairness && starvable {
		writeFirstStarved(cand, minSMs, extra, firstStarved, zLast)
		if slices.Compare(cand, best) < 0 {
			copy(best, cand)
		}
	}
	return score
}

// writeFirstStarved writes into dst the lexicographically first starved
// composition: the first composition when first is set, else the first
// that gives the last app fewer columns than its zLast starved ones (then
// n > 1 and 0 < zLast ≤ extra).
func writeFirstStarved(dst []int, minSMs, extra int, first bool, zLast int) {
	n := len(dst)
	for i := range dst {
		dst[i] = minSMs
	}
	if first {
		dst[n-1] += extra
		return
	}
	dst[n-2] += extra - zLast + 1
	dst[n-1] += zLast - 1
}

// boxFill writes into dst, as SM counts, the lexicographically first
// composition of extra columns with need[i] ≤ k_i ≤ caps[i]: each app in
// turn takes the least that the caps after it leave room for.
func boxFill(dst, need, caps []int, extra, minSMs int) {
	rest := 0
	for _, c := range caps[:len(dst)] {
		rest += c
	}
	for i := range dst {
		rest -= caps[i]
		k := max(need[i], extra-rest)
		extra -= k
		dst[i] = minSMs + k
	}
}
