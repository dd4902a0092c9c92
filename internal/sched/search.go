package sched

import "slices"

// The partition search behind DASE-Fair, POST /v1/estimate and the fleet's
// per-interval repartition. The objective is separable: an app's
// interpolated reciprocal depends only on (app, SM count), so it is
// tabulated once per call and the enumeration reads the table, skipping
// what a monotone bound rules out. DESIGN.md §5.1 carries the argument for
// why the result is bit-identical to scoring every candidate with
// EstimatedUnfairness (refmodel.ExhaustivePartition).

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
	// rec[i*w+x-minSMs] is app i's interpolated reciprocal at x SMs, for
	// every x a composition can give it: minSMs ≤ x < minSMs+w.
	rec        []float64
	best, cand []int

	n, w, minSMs int
	// score is the incumbent's; negative until a candidate is accepted.
	score float64
}

// Fair returns the composition of total SMs into len(slow) parts (each at
// least minSMs) with the lowest EstimatedUnfairness, and that unfairness;
// among equals, the lexicographically first. The partition aliases ps and
// is valid until the next search; it is nil when no composition exists.
func (ps *PartitionSearch) Fair(slow []float64, cur []int, total, minSMs int) ([]int, float64) {
	n := len(slow)
	ps.best, ps.cand = slices.Grow(ps.best[:0], n)[:n], slices.Grow(ps.cand[:0], n)[:n]
	if !ps.run(slow, cur, total, minSMs) {
		return nil, 0
	}
	return ps.best, ps.score
}

// stackTable is the reciprocal-table size SearchBestPartitionScratch keeps
// on its stack: enough for 4 apps × 16 SMs (52) and every shape of at most
// 8 apps on 16 SMs.
const stackTable = 128

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
	ps := PartitionSearch{rec: table[:], best: best[:n], cand: cand[:n]}
	if !ps.run(slow, cur, total, minSMs) {
		return nil, 0
	}
	return best[:n], ps.score
}

// run tabulates the reciprocals and enumerates; ps.best and ps.cand must
// already hold len(slow) entries. It reports whether any composition exists.
func (ps *PartitionSearch) run(slow []float64, cur []int, total, minSMs int) bool {
	n := len(slow)
	// minSMs > total/n catches a huge minSMs whose product with n wraps;
	// minSMs*n > total is exact otherwise, negative totals included.
	if n == 0 || minSMs > total/n || minSMs*n > total {
		return false
	}
	w := total - minSMs*n + 1
	if cap(ps.rec) < n*w {
		ps.rec = make([]float64, n*w) // not slices.Grow: it would move the caller's stack table to the heap
	}
	ps.rec = ps.rec[:n*w]
	for i := range slow {
		r := 1 / max(slow[i], 1)
		row := ps.rec[i*w : (i+1)*w]
		for k := range row {
			row[k] = ReciprocalAt(r, cur[i], minSMs+k, total)
		}
	}
	ps.n, ps.w, ps.minSMs, ps.score = n, w, minSMs, -1
	if n == 1 {
		ps.cand[0] = total
		ps.offer(fold(0, ps.rec[total-minSMs], 0, 0, false))
	} else {
		ps.descend(0, total, 0, 0, false)
	}
	return true
}

// descend enumerates, in ascending lexicographic order, every completion of
// the prefix cand[:i] (i ≤ n-2) from the left SMs that remain; (lo, hi,
// starved) is the prefix's fold. A subtree is skipped when fairBound says
// no completion can replace the incumbent, and the rest of a level once it
// has peaked: a row is nondecreasing in x (ReciprocalAt is),
// so when app i's reciprocal r has become the prefix's max, a larger share
// only raises r/lo, and what was skipped at x is skipped at every later x.
func (ps *PartitionSearch) descend(i, left int, lo, hi float64, starved bool) {
	n, w, min := ps.n, ps.w, ps.minSMs
	row, lastRow := ps.rec[i*w:(i+1)*w], ps.rec[(n-1)*w:n*w]
	for x, end := min, left-min*(n-1-i); x <= end; x++ {
		r := row[x-min]
		xlo, xhi, xstarved := fold(i, r, lo, hi, starved)
		ps.cand[i] = x
		switch {
		case i == n-2: // the last app takes the remainder
			rLast := lastRow[left-x-min]
			ps.cand[n-1] = left - x
			ps.offer(fold(n-1, rLast, xlo, xhi, xstarved))
			// Past the crossing r grows and the last app's reciprocal,
			// already the smaller, shrinks: scores only rise, or starve.
			if r >= rLast && ps.score <= starvedUnfairness {
				return
			}
		case !(ps.score < 0) && !(fairBound(xlo, xhi, xstarved) < ps.score):
			if i > 0 && r >= hi {
				return
			}
		default:
			ps.descend(i+1, left-x, xlo, xhi, xstarved)
		}
	}
}

// fold extends a prefix's state by app i's reciprocal r, exactly as
// EstimatedUnfairness folds it: the running min and max (NaN-ignoring after
// app 0) and whether any reciprocal was ≤ 0.
func fold(i int, r, lo, hi float64, starved bool) (float64, float64, bool) {
	if i == 0 || r < lo {
		lo = r
	}
	if i == 0 || r > hi {
		hi = r
	}
	return lo, hi, starved || r <= 0
}

// offer scores the complete candidate in ps.cand from its fold and makes it
// the incumbent if it is the first or strictly better.
func (ps *PartitionSearch) offer(lo, hi float64, starved bool) {
	score := starvedUnfairness
	if !starved {
		score = hi / lo
	}
	if ps.score < 0 || score < ps.score {
		ps.score = score
		copy(ps.best, ps.cand)
	}
}

// fairBound is a lower bound on the unfairness of every completion of a
// prefix whose reciprocals fold to (lo, hi, starved). Adding apps can only
// lower the min and raise the max, and IEEE division is monotone in both
// operands, so an unstarved completion scores at least hi/lo; a starved one
// scores exactly starvedUnfairness. A NaN prefix (hi/lo is NaN) only ever
// completes to NaN, which never replaces an incumbent, or to starved.
func fairBound(lo, hi float64, starved bool) float64 {
	if !starved {
		if b := hi / lo; b < starvedUnfairness {
			return b
		}
	}
	return starvedUnfairness
}
