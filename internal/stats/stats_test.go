package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOnlineBasics(t *testing.T) {
	var o Online
	if !math.IsNaN(o.Mean()) {
		t.Fatal("empty mean should be NaN")
	}
	for _, v := range []float64{3, 1, 2} {
		o.Add(v)
	}
	if o.Count != 3 || o.Min != 1 || o.Max != 3 || o.Mean() != 2 {
		t.Fatalf("online = %+v mean=%v", o, o.Mean())
	}
}

func TestOnlineMerge(t *testing.T) {
	var a, b Online
	a.Add(1)
	a.Add(2)
	b.Add(10)
	a.Merge(b)
	if a.Count != 3 || a.Max != 10 || a.Min != 1 {
		t.Fatalf("merged = %+v", a)
	}
	var empty Online
	a.Merge(empty)
	if a.Count != 3 {
		t.Fatal("merging empty changed state")
	}
	empty.Merge(a)
	if empty.Count != 3 {
		t.Fatal("merge into empty failed")
	}
}

func TestOnlineMergeEquivalenceProperty(t *testing.T) {
	f := func(xs []uint16, split uint8) bool {
		if len(xs) == 0 {
			return true
		}
		k := int(split) % len(xs)
		var whole, a, b Online
		for i, x := range xs {
			whole.Add(float64(x))
			if i < k {
				a.Add(float64(x))
			} else {
				b.Add(float64(x))
			}
		}
		a.Merge(b)
		return a.Count == whole.Count && a.Sum == whole.Sum && a.Min == whole.Min && a.Max == whole.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLogHistBuckets(t *testing.T) {
	var h LogHist
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(3)
	h.Add(4)
	h.Add(1023)
	if h.Buckets[0] != 2 { // {0,1}
		t.Fatalf("bucket 0 = %d", h.Buckets[0])
	}
	if h.Buckets[1] != 2 { // [2,4)
		t.Fatalf("bucket 1 = %d", h.Buckets[1])
	}
	if h.Buckets[2] != 1 { // [4,8)
		t.Fatalf("bucket 2 = %d", h.Buckets[2])
	}
	if h.Buckets[9] != 1 { // [512,1024)
		t.Fatalf("bucket 9 = %d", h.Buckets[9])
	}
	if h.Total != 6 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.String() == "" {
		t.Fatal("empty render")
	}
}

func TestLogHistQuantile(t *testing.T) {
	var h LogHist
	for i := 0; i < 99; i++ {
		h.Add(10) // bucket [8,16)
	}
	h.Add(5000) // bucket [4096,8192)
	if q := h.Quantile(0.5); q != 16 {
		t.Fatalf("p50 = %d, want 16", q)
	}
	if q := h.Quantile(1.0); q != 8192 {
		t.Fatalf("p100 = %d, want 8192", q)
	}
	var empty LogHist
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestLogHistMergeConservesProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b, whole LogHist
		for _, x := range xs {
			a.Add(uint64(x))
			whole.Add(uint64(x))
		}
		for _, y := range ys {
			b.Add(uint64(y))
			whole.Add(uint64(y))
		}
		a.Merge(&b)
		if a.Total != whole.Total {
			return false
		}
		for i := range a.Buckets {
			if a.Buckets[i] != whole.Buckets[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJain(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{1, 1, 1}, 1},
		{[]float64{1, 0.5}, 0.9},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{0, 0}, 1},
	}
	for _, c := range cases {
		if got := Jain(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
