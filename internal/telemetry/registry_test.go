package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	g := r.Gauge("depth", "Depth.")
	g.Set(3)
	g.Add(-1.5)
	if g.Load() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Load())
	}
	gv := r.GaugeVec("info", "Info.", "version", "os")
	gv.With("1.2", "linux").Set(1)
	r.CounterFunc("fn_total", "Fn.", func() float64 { return 42 })
	r.GaugeFunc("fn_gauge", "Fn gauge.", func() float64 { return 7.5 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs.\n# TYPE jobs_total counter\njobs_total 5\n",
		"# TYPE depth gauge\ndepth 1.5\n",
		`info{version="1.2",os="linux"} 1`,
		"fn_total 42\n",
		"fn_gauge 7.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 105.65 {
		t.Fatalf("sum = %v, want 105.65", got)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 2`, // cumulative: 0.05 and the on-boundary 0.1
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_sum 105.65",
		"latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup", "x")
	mustPanic("duplicate name", func() { r.Gauge("dup", "y") })
	mustPanic("non-increasing buckets", func() { r.Histogram("h", "x", 1, 1) })
	v := r.GaugeVec("labelled", "x", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

func TestFamiliesSorted(t *testing.T) {
	r := NewRegistry()
	r.Gauge("zeta", "z")
	r.Counter("alpha_total", "a")
	r.Histogram("mid", "m", 1)
	fams := r.Families()
	if len(fams) != 3 {
		t.Fatalf("%d families, want 3", len(fams))
	}
	wantNames := []string{"alpha_total", "mid", "zeta"}
	wantTypes := []string{"counter", "histogram", "gauge"}
	for i, f := range fams {
		if f.Name != wantNames[i] || f.Type != wantTypes[i] {
			t.Errorf("family %d = %+v, want %s/%s", i, f, wantNames[i], wantTypes[i])
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("g", "g", "path").With(`a"b\c` + "\n").Set(1)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if want := `g{path="a\"b\\c\n"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("escaped label missing %q in:\n%s", want, sb.String())
	}
}

func TestObserveIgnoresNaN(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "H.", 0.1, 1)
	h.Observe(math.NaN())
	h.Observe(0.05)
	if h.Count() != 1 || h.Sum() != 0.05 {
		t.Errorf("count %d sum %v, want 1 and 0.05 (NaN dropped)", h.Count(), h.Sum())
	}
}
