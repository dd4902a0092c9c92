package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a unified metrics registry: counters, gauges (optionally
// labelled) and histograms, rendered in Prometheus text exposition format.
// Metric updates are atomic and lock-free; registration and exposition take
// the registry lock. Registering two families under one name panics — that is a
// programming error the exposition test would otherwise hide.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Family describes one registered metric family, for exposition tests and
// introspection.
type Family struct {
	Name string
	Help string
	Type string // "counter" | "gauge" | "histogram"
}

// family is one named metric with its children (one per label-value tuple;
// unlabelled metrics have a single child under the empty key).
type family struct {
	Family
	labelNames []string
	buckets    []float64      // histograms only
	fn         func() float64 // CounterFunc/GaugeFunc families; nil otherwise

	mu       sync.Mutex
	children map[string]*child
	order    []string
}

// child holds the samples of one label-value tuple.
type child struct {
	labelValues []string
	bits        atomic.Uint64 // counter count, or gauge float64 bits

	// histogram state
	bucketCounts []atomic.Uint64
	sumBits      atomic.Uint64
	count        atomic.Uint64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register adds a family, panicking on duplicate names or invalid
// histograms.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.Name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", f.Name))
	}
	for i := 1; i < len(f.buckets); i++ {
		if f.buckets[i] <= f.buckets[i-1] {
			panic(fmt.Sprintf("telemetry: metric %q has non-increasing buckets", f.Name))
		}
	}
	f.children = map[string]*child{}
	r.fams[f.Name] = f
	return f
}

// childFor returns (creating if needed) the child for the given label
// values.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q got %d label values for %d labels", f.Name, len(values), len(f.labelNames)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		if f.Type == "histogram" {
			c.bucketCounts = make([]atomic.Uint64, len(f.buckets)+1)
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ c *child }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.c.bits.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.c.bits.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.c.bits.Load() }

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{Family: Family{Name: name, Help: help, Type: "counter"}})
	return &Counter{c: f.childFor(nil)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic totals owned by another component (e.g. cache hit
// counts).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{Family: Family{Name: name, Help: help, Type: "counter"}, fn: fn})
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ c *child }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.c.bits.Load()) }

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(&family{Family: Family{Name: name, Help: help, Type: "gauge"}})
	return &Gauge{c: f.childFor(nil)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(&family{
		Family: Family{Name: name, Help: help, Type: "gauge"}, labelNames: labelNames,
	})}
}

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{c: v.f.childFor(labelValues)}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// for mirroring live state (queue depth, cache fill) without bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{Family: Family{Name: name, Help: help, Type: "gauge"}, fn: fn})
}

// Histogram buckets observations into cumulative Prometheus buckets.
type Histogram struct {
	f *family
	c *child
}

// Histogram registers an unlabelled histogram with the given upper bucket
// bounds (must be increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets ...float64) *Histogram {
	f := r.register(&family{
		Family:  Family{Name: name, Help: help, Type: "histogram"},
		buckets: append([]float64(nil), buckets...),
	})
	return &Histogram{f: f, c: f.childFor(nil)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.f.buckets, v) // first bucket with bound >= v
	h.c.bucketCounts[idx].Add(1)
	h.c.count.Add(1)
	for {
		old := h.c.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.c.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.c.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.c.sumBits.Load()) }

// Families lists the registered families sorted by name.
func (r *Registry) Families() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f.Family)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders every family in text exposition format, sorted by
// name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		if f.fn != nil {
			fmt.Fprintf(w, "%s %s\n", f.Name, formatFloat(f.fn()))
			continue
		}
		f.mu.Lock()
		children := make([]*child, 0, len(f.order))
		for _, key := range f.order {
			children = append(children, f.children[key])
		}
		f.mu.Unlock()
		for _, c := range children {
			switch f.Type {
			case "histogram":
				writeHistogram(w, f, c)
			case "counter":
				fmt.Fprintf(w, "%s %d\n", f.Name, c.bits.Load())
			default:
				fmt.Fprintf(w, "%s%s %s\n", f.Name, labelString(f.labelNames, c.labelValues), formatFloat(math.Float64frombits(c.bits.Load())))
			}
		}
	}
}

// writeHistogram renders one histogram: cumulative buckets, +Inf, sum and
// count.
func writeHistogram(w io.Writer, f *family, c *child) {
	var cum uint64
	for i, bound := range f.buckets {
		cum += c.bucketCounts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.Name, formatFloat(bound), cum)
	}
	cum += c.bucketCounts[len(f.buckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.Name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", f.Name, formatFloat(math.Float64frombits(c.sumBits.Load())))
	fmt.Fprintf(w, "%s_count %d\n", f.Name, c.count.Load())
}

// labelString renders the {k="v",...} suffix, empty for unlabelled metrics.
// Go's %q escaping (backslash, quote, newline) matches the exposition
// format's label escaping rules.
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	pairs := make([]string, len(names))
	for i := range names {
		pairs[i] = fmt.Sprintf("%s=%q", names[i], values[i])
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip form).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
