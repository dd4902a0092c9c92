package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSlowdown(t *testing.T) {
	if got := Slowdown(10, 5); got != 2 {
		t.Fatalf("Slowdown(10,5) = %v", got)
	}
	if got := Slowdown(10, 0); !math.IsInf(got, 1) {
		t.Fatalf("zero shared IPC should be +Inf, got %v", got)
	}
}

func TestUnfairness(t *testing.T) {
	if got := Unfairness([]float64{2, 2, 2}); got != 1 {
		t.Fatalf("equal slowdowns must be perfectly fair, got %v", got)
	}
	if got := Unfairness([]float64{3.44, 1.37}); !almost(got, 3.44/1.37) {
		t.Fatalf("paper's example: got %v", got)
	}
	if !math.IsNaN(Unfairness(nil)) {
		t.Fatal("empty slice should be NaN")
	}
	if got := Unfairness([]float64{1, 0}); !math.IsInf(got, 1) {
		t.Fatalf("zero slowdown should be +Inf, got %v", got)
	}
}

func TestHarmonicSpeedup(t *testing.T) {
	// Eq. 27: N / sum(slowdowns). Two apps at slowdown 2 -> 0.5.
	if got := HarmonicSpeedup([]float64{2, 2}); got != 0.5 {
		t.Fatalf("HarmonicSpeedup = %v, want 0.5", got)
	}
	if got := HarmonicSpeedup([]float64{1, 1, 1}); got != 1 {
		t.Fatalf("no slowdown must give 1, got %v", got)
	}
	if !math.IsNaN(HarmonicSpeedup(nil)) {
		t.Fatal("empty slice should be NaN")
	}
}

func TestWeightedSpeedup(t *testing.T) {
	if got := WeightedSpeedup([]float64{1, 1}); got != 2 {
		t.Fatalf("WS of no slowdown = %v, want 2", got)
	}
	if got := WeightedSpeedup([]float64{2, 2}); got != 1 {
		t.Fatalf("WS = %v, want 1", got)
	}
	if !math.IsNaN(WeightedSpeedup(nil)) {
		t.Fatal("empty should be NaN")
	}
	if !math.IsInf(WeightedSpeedup([]float64{0}), 1) {
		t.Fatal("zero slowdown should be +Inf")
	}
}

func TestError(t *testing.T) {
	if got := Error(1.1, 1.0); !almost(got, 0.1) {
		t.Fatalf("Error = %v, want 0.1", got)
	}
	if got := Error(0.9, 1.0); !almost(got, 0.1) {
		t.Fatal("error must be magnitude")
	}
	if got := Error(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("zero actual should be +Inf, got %v", got)
	}
}

func TestUnfairnessAtLeastOneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-9 && !math.IsInf(v, 0) && !math.IsNaN(v) {
				xs = append(xs, v+1) // slowdowns are >= 1 in practice
			}
		}
		if len(xs) == 0 {
			return true
		}
		u := Unfairness(xs)
		return u >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMedianGeoMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median even = %v", got)
	}
	if got := GeoMean([]float64{1, 4}); got != 2 {
		t.Fatalf("GeoMean = %v", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Fatal("GeoMean of negative input should be NaN")
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) || !math.IsNaN(GeoMean(nil)) {
		t.Fatal("empty inputs should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0.1, 0.2)
	for _, v := range []float64{0.05, 0.15, 0.15, 0.5} {
		h.Add(v)
	}
	fr := h.Fractions()
	if !almost(fr[0], 0.25) || !almost(fr[1], 0.5) || !almost(fr[2], 0.25) {
		t.Fatalf("fractions = %v", fr)
	}
	if h.Total != 4 {
		t.Fatalf("Total = %d, want 4", h.Total)
	}
	// NaN compares false against every edge, so it lands in the overflow
	// bucket (Fig. 7 relies on this), and an empty histogram has zero
	// fractions rather than NaN ones.
	nan := NewHistogram(0.1)
	nan.Add(math.NaN())
	if nan.Counts[1] != 1 {
		t.Fatalf("NaN counts = %v, want overflow", nan.Counts)
	}
	for _, f := range NewHistogram(0.1).Fractions() {
		if f != 0 {
			t.Fatalf("empty histogram fraction %v, want 0", f)
		}
	}
}

func TestHistogramPanicsOnBadEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing edges must panic")
		}
	}()
	NewHistogram(0.2, 0.1)
}

func TestHistogramConservationProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram(0.1, 0.5, 1.0)
		n := 0
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(math.Abs(v))
			n++
		}
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == n && h.Total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
