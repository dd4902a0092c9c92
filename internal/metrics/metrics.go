// Package metrics implements the paper's evaluation metrics: per-application
// slowdown (Eq. 1), system unfairness (Eq. 2), slowdown-estimation error
// (Eq. 26), harmonic speedup (Eq. 27), and the histogram experiments.Fig7
// buckets the error distribution of Figure 7 with.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Slowdown computes IPCalone / IPCshared (Eq. 1).
func Slowdown(ipcAlone, ipcShared float64) float64 {
	if ipcShared <= 0 {
		return math.Inf(1)
	}
	return ipcAlone / ipcShared
}

// Unfairness is MAX(slowdowns)/MIN(slowdowns) (Eq. 2); 1.0 is perfectly
// fair. It returns NaN for an empty slice.
func Unfairness(slowdowns []float64) float64 {
	if len(slowdowns) == 0 {
		return math.NaN()
	}
	mx, mn := slowdowns[0], slowdowns[0]
	for _, s := range slowdowns[1:] {
		if s > mx {
			mx = s
		}
		if s < mn {
			mn = s
		}
	}
	if mn <= 0 {
		return math.Inf(1)
	}
	return mx / mn
}

// HarmonicSpeedup is N / Σ slowdown_i (Eq. 27), the harmonic mean of the
// per-application speedups — a balanced fairness/performance measure.
func HarmonicSpeedup(slowdowns []float64) float64 {
	if len(slowdowns) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, s := range slowdowns {
		sum += s
	}
	if sum <= 0 {
		return math.Inf(1)
	}
	return float64(len(slowdowns)) / sum
}

// WeightedSpeedup is Σ 1/slowdown_i — the system-throughput metric used by
// the multiprogramming literature the paper builds on (Jog et al.); N means
// every app runs at alone speed, values near 1 mean the GPU behaves like a
// serialised machine.
func WeightedSpeedup(slowdowns []float64) float64 {
	if len(slowdowns) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, s := range slowdowns {
		if s <= 0 {
			return math.Inf(1)
		}
		sum += 1 / s
	}
	return sum
}

// Error is the relative estimation error |est-actual|/actual (Eq. 26, taken
// as magnitude as in the paper's figures).
func Error(estimated, actual float64) float64 {
	if actual <= 0 {
		return math.Inf(1)
	}
	return math.Abs(estimated-actual) / actual
}

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median, NaN for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// GeoMean returns the geometric mean; inputs must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Histogram buckets values below increasing upper edges, for the Figure 7
// error distribution. A value goes to the first bucket whose edge it is
// strictly below; NaN is below no edge and lands in the overflow bucket.
type Histogram struct {
	// Edges are the upper bounds of each bucket; a final overflow bucket
	// catches everything above the last edge.
	Edges  []float64
	Counts []int
	Total  int
}

// NewHistogram builds a histogram with the given upper bucket edges (must
// be increasing).
func NewHistogram(edges ...float64) *Histogram {
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic(fmt.Sprintf("metrics: histogram edges not increasing at %d", i))
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]int, len(edges)+1),
	}
}

// Add buckets one value.
func (h *Histogram) Add(v float64) {
	h.Total++
	for i, e := range h.Edges {
		if v < e {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Edges)]++
}

// Fractions returns each bucket's share of the total (zero total gives
// zeros).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.Total)
	}
	return out
}
