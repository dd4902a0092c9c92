package refmodel

// The partition search sched replaced with a reciprocal table and a
// threshold sweep: score every composition from scratch, one at a time.
// The interpolation and the scorers are restated here rather than imported,
// so the oracle shares no arithmetic with the code it checks (and refmodel
// stays importable from every engine package's tests).

// reciprocalAt is Eqs. 29-30: an app's reciprocal slowdown at x SMs,
// interpolated from recipCur at cur SMs — linear to 1 at all SMs, to 0 at
// none.
func reciprocalAt(recipCur float64, cur, x, total int) float64 {
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

// unfairness predicts MAX/MIN slowdown for cand, slowdowns below 1 clamped
// to 1; 1e18 when an app starves.
func unfairness(slow []float64, cur, cand []int, total int) float64 {
	var minR, maxR float64
	for i, s := range slow {
		r := reciprocalAt(1/max(s, 1), cur[i], cand[i], total)
		if r <= 0 {
			return 1e18
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

// ExhaustivePartition enumerates every composition of total SMs into
// len(slow) parts (each >= minSMs) in ascending lexicographic order and
// returns the one with the lowest predicted unfairness, along with that
// unfairness. Ties keep the earliest candidate; nil when none exists, and
// for a negative minSMs, which could give an app more than total SMs.
func ExhaustivePartition(slow []float64, cur []int, total, minSMs int) ([]int, float64) {
	cand := firstComposition(len(slow), total, minSMs)
	if cand == nil {
		return nil, 0
	}
	best := make([]int, len(cand))
	bestUnf := -1.0
	for {
		u := unfairness(slow, cur, cand, total)
		if bestUnf < 0 || u < bestUnf {
			bestUnf = u
			copy(best, cand)
		}
		if !nextComposition(cand, total, minSMs) {
			return best, bestUnf
		}
	}
}

// firstComposition returns the lexicographically first composition — minSMs
// everywhere, the remainder last — or nil when none exists or minSMs is
// negative.
func firstComposition(n, total, minSMs int) []int {
	if n == 0 || minSMs < 0 || minSMs*n > total {
		return nil
	}
	cand := make([]int, n)
	for i := 0; i < n-1; i++ {
		cand[i] = minSMs
	}
	cand[n-1] = total - minSMs*(n-1)
	return cand
}

// nextComposition advances cand to the next composition of total into
// len(cand) parts, each at least minSMs, in ascending lexicographic order of
// the first len(cand)-1 positions (the last position is the remainder). It
// reports false when cand already was the final composition.
func nextComposition(cand []int, total, minSMs int) bool {
	n := len(cand)
	for j := n - 2; j >= 0; j-- {
		pre := 1 // sum of cand[0..j] after incrementing cand[j]
		for i := 0; i <= j; i++ {
			pre += cand[i]
		}
		// Positions j+1..n-1 must each still get minSMs.
		if total-pre < minSMs*(n-1-j) {
			continue
		}
		cand[j]++
		for i := j + 1; i < n-1; i++ {
			cand[i] = minSMs
		}
		cand[n-1] = total - pre - minSMs*(n-2-j)
		return true
	}
	return false
}
