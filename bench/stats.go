package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dasesim/internal/metrics"
)

// segments is how many equal parts a measured phase is cut into. Each
// reported figure is the median over the parts, and the spread between the
// parts' quartiles travels with it.
const segments = 5

// op is one completed operation of a measured phase.
type op struct {
	end  time.Duration // completion time since the phase started
	lat  time.Duration
	work float64 // units of work_per_s this operation completed
}

// stat is a median over segments with its own noise.
type stat struct {
	Value    float64
	IQRPct   float64   // (q3-q1)/median over the segments, in percent
	N        int       // operations behind the figure
	Segments []float64 // the per-segment values, in phase order
}

// percentile reads the p-th percentile (nearest rank) from sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads printed
// here match the ones the acceptance procedure computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func newStat(perSegment []float64, n int) stat {
	m := metrics.Median(perSegment)
	st := stat{Value: m, N: n, Segments: perSegment}
	if q1, q3 := quartiles(perSegment); m != 0 {
		st.IQRPct = math.Abs(q3-q1) / math.Abs(m) * 100
	}
	return st
}

// summarize orders a phase's operations by completion and cuts them into
// equal-count segments. Per segment: work completed per second of the
// segment's span, and the p50 and p99 of the operation latencies (in µs).
func summarize(ops []op) (perS, p50, p99 stat) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	k := segments
	if len(ops) < k {
		k = len(ops)
	}
	var thr, mid, tail []float64
	var prevEnd time.Duration
	for s := 0; s < k; s++ {
		seg := ops[s*len(ops)/k : (s+1)*len(ops)/k]
		var work float64
		lats := make([]float64, len(seg))
		for i := range seg {
			work += seg[i].work
			lats[i] = float64(seg[i].lat) / float64(time.Microsecond)
		}
		sort.Float64s(lats)
		end := seg[len(seg)-1].end
		if span := (end - prevEnd).Seconds(); span > 0 {
			thr = append(thr, work/span)
		}
		prevEnd = end
		mid = append(mid, percentile(lats, 50))
		tail = append(tail, percentile(lats, 99))
	}
	return newStat(thr, len(ops)), newStat(mid, len(ops)), newStat(tail, len(ops))
}

// loopStats is what one closed-loop client — or, merged, all of them — saw.
type loopStats struct {
	ops      []op
	failures []string // the first few, for the report
	failed   int
	busy     time.Duration // time inside loop iterations, summed over clients
}

func (l *loopStats) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

func (l *loopStats) merge(o *loopStats) {
	l.ops = append(l.ops, o.ops...)
	l.failures = append(l.failures, o.failures...)
	l.failed += o.failed
	l.busy += o.busy
}

// clientNs is the clients' own time per operation: what its loop
// spent outside the timed round trips (picking the body, decoding and
// checking the answer).
func (l *loopStats) clientNs() float64 {
	busy := l.busy
	for i := range l.ops {
		busy -= l.ops[i].lat
	}
	return meanNs(busy, len(l.ops))
}

// meanNs is total/n in nanoseconds.
func meanNs(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(n)
}
