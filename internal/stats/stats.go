// Package stats provides the small streaming-statistics helpers the
// simulator uses for latency and interval metrics: an online accumulator
// (count/mean/min/max), a power-of-two-bucketed histogram suitable for
// long-tailed latency distributions, and Jain's fairness index.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Online accumulates count, sum, min and max of a stream without storing it.
type Online struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
}

// Add folds one observation in.
func (o *Online) Add(v float64) {
	if o.Count == 0 || v < o.Min {
		o.Min = v
	}
	if o.Count == 0 || v > o.Max {
		o.Max = v
	}
	o.Count++
	o.Sum += v
}

// Mean returns the running mean (NaN when empty).
func (o *Online) Mean() float64 {
	if o.Count == 0 {
		return math.NaN()
	}
	return o.Sum / float64(o.Count)
}

// Merge folds another accumulator in.
func (o *Online) Merge(other Online) {
	if other.Count == 0 {
		return
	}
	if o.Count == 0 {
		*o = other
		return
	}
	if other.Min < o.Min {
		o.Min = other.Min
	}
	if other.Max > o.Max {
		o.Max = other.Max
	}
	o.Count += other.Count
	o.Sum += other.Sum
}

// LogHist buckets non-negative integer observations by power of two:
// bucket k holds values in [2^k, 2^(k+1)) and bucket 0 holds {0, 1}.
type LogHist struct {
	Buckets [40]uint64
	Total   uint64
}

// Add folds one observation in.
func (h *LogHist) Add(v uint64) {
	k := 0
	for v > 1 && k < len(h.Buckets)-1 {
		v >>= 1
		k++
	}
	h.Buckets[k]++
	h.Total++
}

// Merge folds another histogram in.
func (h *LogHist) Merge(other *LogHist) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Total += other.Total
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the upper
// edge of the bucket containing it.
func (h *LogHist) Quantile(q float64) uint64 {
	if h.Total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for k, c := range h.Buckets {
		cum += c
		if cum >= target {
			return uint64(1) << uint(k+1)
		}
	}
	return uint64(1) << uint(len(h.Buckets))
}

// String renders the non-empty buckets.
func (h *LogHist) String() string {
	var b strings.Builder
	for k, c := range h.Buckets {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%d,%d):%d ", uint64(1)<<uint(k), uint64(1)<<uint(k+1), c)
	}
	return strings.TrimSpace(b.String())
}

// Jain is Jain's fairness index (Σx)²/(n·Σx²): 1 when every share is equal,
// →1/n under maximal skew. Empty or all-zero input reads as perfectly fair.
// The sums accumulate in slice order, so a caller's digests depend only on
// the order of xs.
func Jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
