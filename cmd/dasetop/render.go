package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dasesim/internal/stats"
	"dasesim/internal/telemetry"
)

// Frame is one poll of the cluster: the decoded body of
// GET /v1/cluster/metrics?by=node&format=json.
type Frame struct {
	Nodes    []string                   `json:"nodes"`
	Families []telemetry.FamilySnapshot `json:"families"`
}

// sparkWidth is how many history samples the latency sparklines keep.
const sparkWidth = 32

// Model is the dashboard's render core: it folds successive Frames (and an
// optional fleet NDJSON event stream) into a terminal screen. It owns only
// plain state — no I/O, no clock — so tests drive it with synthetic frames
// and assert on the rendered buffer.
type Model struct {
	polls     int
	prevDone  map[string]float64 // per-node completed-jobs counter, previous frame
	rateJobs  map[string]float64 // per-node jobs/s from the last frame pair
	p50, p99  []float64          // estimate-latency quantile history, newest last
	frame     Frame
	fleet     []telemetry.Event
	elapsedHz float64 // seconds between the last two frames (0 on the first)
}

// NewModel returns an empty dashboard model.
func NewModel() *Model {
	return &Model{prevDone: map[string]float64{}, rateJobs: map[string]float64{}}
}

// Observe folds one poll into the model. elapsed is the wall time since the
// previous poll (0 on the first), used only for throughput rates; fleetEvents
// may be nil when no fleet telemetry is wired in.
func (m *Model) Observe(f Frame, fleetEvents []telemetry.Event, elapsed float64) {
	m.polls++
	m.frame = f
	m.fleet = fleetEvents
	m.elapsedHz = elapsed

	done := perNodeValue(f.Families, "dased_jobs_completed_total")
	for node, v := range done {
		if prev, ok := m.prevDone[node]; ok && elapsed > 0 && v >= prev {
			m.rateJobs[node] = (v - prev) / elapsed
		}
		m.prevDone[node] = v
	}

	if bounds, counts := clusterHistogram(f.Families, "dased_estimate_latency_seconds"); counts != nil {
		m.p50 = pushSample(m.p50, telemetry.HistogramQuantile(0.50, bounds, counts))
		m.p99 = pushSample(m.p99, telemetry.HistogramQuantile(0.99, bounds, counts))
	}
}

// Render draws the current screen into a string: per-node vitals, estimate
// latency sparklines, per-tenant fairness, and SLO burn rates. Plain ANSI-free
// text — the caller decides whether to clear the terminal around it.
func (m *Model) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dasetop — poll %d — %d node(s)\n\n", m.polls, len(m.frame.Nodes))
	m.renderNodes(&sb)
	m.renderLatency(&sb)
	m.renderTenants(&sb)
	m.renderSLO(&sb)
	return sb.String()
}

// renderNodes draws the per-node vitals table.
func (m *Model) renderNodes(sb *strings.Builder) {
	queue := perNodeValue(m.frame.Families, "dased_queue_depth")
	running := perNodeValue(m.frame.Families, "dased_jobs_running")
	hits := perNodeValue(m.frame.Families, "dased_cache_hits_total")
	misses := perNodeValue(m.frame.Families, "dased_cache_misses_total")
	done := perNodeValue(m.frame.Families, "dased_jobs_completed_total")

	fmt.Fprintf(sb, "%-10s %6s %8s %10s %8s %8s\n", "NODE", "QUEUE", "RUNNING", "CACHE HIT", "JOBS/S", "DONE")
	nodes := append([]string(nil), m.frame.Nodes...)
	sort.Strings(nodes)
	for _, n := range nodes {
		hitRate := "-"
		if total := hits[n] + misses[n]; total > 0 {
			hitRate = fmt.Sprintf("%.1f%%", 100*hits[n]/total)
		}
		rate := "-"
		if r, ok := m.rateJobs[n]; ok {
			rate = fmt.Sprintf("%.1f", r)
		}
		fmt.Fprintf(sb, "%-10s %6.0f %8.0f %10s %8s %8.0f\n",
			n, queue[n], running[n], hitRate, rate, done[n])
	}
	sb.WriteByte('\n')
}

// renderLatency draws the cluster-wide estimate-service latency quantiles
// with their sparkline history.
func (m *Model) renderLatency(sb *strings.Builder) {
	if len(m.p50) == 0 {
		return
	}
	cur50, cur99 := m.p50[len(m.p50)-1], m.p99[len(m.p99)-1]
	fmt.Fprintf(sb, "ESTIMATE LATENCY   p50 %s   p99 %s\n", duration(cur50), duration(cur99))
	fmt.Fprintf(sb, "  p50 %s\n", sparkline(m.p50))
	fmt.Fprintf(sb, "  p99 %s\n\n", sparkline(m.p99))
}

// tenantRow is one tenant's latest fleet interval.
type tenantRow struct {
	name            string
	deserved, alloc float64
	queued          uint64
	slowdown        float64
}

// renderTenants draws deserved-vs-actual SM shares from the newest fleet
// interval in the NDJSON stream, plus the Jain fairness index over
// allocation/deserved ratios.
func (m *Model) renderTenants(sb *strings.Builder) {
	rows := latestInterval(m.fleet)
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(sb, "%-10s %9s %7s %7s %9s\n", "TENANT", "DESERVED", "ALLOC", "QUEUED", "SLOWDOWN")
	ratios := make([]float64, 0, len(rows))
	for _, r := range rows {
		slow := "-"
		if r.slowdown > 0 {
			slow = fmt.Sprintf("%.2f", r.slowdown)
		}
		fmt.Fprintf(sb, "%-10s %9.1f %7.0f %7d %9s\n", r.name, r.deserved, r.alloc, r.queued, slow)
		if r.deserved > 0 {
			ratios = append(ratios, r.alloc/r.deserved)
		}
	}
	fmt.Fprintf(sb, "Jain fairness index: %.3f\n\n", stats.Jain(ratios))
}

// renderSLO draws per-objective burn rates, worst node wins.
func (m *Model) renderSLO(sb *strings.Builder) {
	burn := maxByObjective(m.frame.Families, "dased_slo_burn_rate")
	alerting := maxByObjective(m.frame.Families, "dased_slo_alerting")
	if len(burn) == 0 {
		return
	}
	names := make([]string, 0, len(burn))
	for n := range burn {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(sb, "%-24s %8s  %s\n", "SLO", "BURN", "STATUS")
	for _, n := range names {
		status := "ok"
		if alerting[n] >= 1 {
			status = "ALERTING"
		}
		fmt.Fprintf(sb, "%-24s %8.2f  %s\n", n, burn[n], status)
	}
}

// latestInterval extracts the newest fleet interval's tenant rows from a
// fleet NDJSON event stream (one KindFleetInterval event per tenant per
// interval), sorted by tenant name.
func latestInterval(events []telemetry.Event) []tenantRow {
	var last uint64
	for i := range events {
		if events[i].Kind == telemetry.KindFleetInterval && events[i].Cycle > last {
			last = events[i].Cycle
		}
	}
	byName := map[string]tenantRow{}
	for i := range events {
		e := &events[i]
		if e.Kind != telemetry.KindFleetInterval || e.Cycle != last {
			continue
		}
		byName[e.Note] = tenantRow{
			name: e.Note, deserved: e.Deserved, alloc: float64(e.SMs),
			queued: e.Served, slowdown: e.Est,
		}
	}
	rows := make([]tenantRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// perNodeValue flattens one by-node family into node → summed value (the
// "node" label is first by ByNodeSnapshots construction; points sharing a
// node across further labels add up).
func perNodeValue(fams []telemetry.FamilySnapshot, name string) map[string]float64 {
	out := map[string]float64{}
	f := famByName(fams, name)
	if f == nil {
		return out
	}
	for _, p := range f.Points {
		if len(p.LabelValues) == 0 {
			continue
		}
		out[p.LabelValues[0]] += p.Value
	}
	return out
}

// maxByObjective reduces a by-node {node, objective} gauge family to
// objective → max across nodes.
func maxByObjective(fams []telemetry.FamilySnapshot, name string) map[string]float64 {
	out := map[string]float64{}
	f := famByName(fams, name)
	if f == nil {
		return out
	}
	for _, p := range f.Points {
		if len(p.LabelValues) < 2 {
			continue
		}
		obj := p.LabelValues[1]
		if cur, ok := out[obj]; !ok || p.Value > cur {
			out[obj] = p.Value
		}
	}
	return out
}

// clusterHistogram sums one histogram family's buckets across all nodes and
// label values; nil counts when the family is absent or empty.
func clusterHistogram(fams []telemetry.FamilySnapshot, name string) ([]float64, []uint64) {
	f := famByName(fams, name)
	if f == nil || len(f.Buckets) == 0 {
		return nil, nil
	}
	counts := make([]uint64, len(f.Buckets)+1)
	any := false
	for _, p := range f.Points {
		for i, c := range p.BucketCounts {
			if i < len(counts) {
				counts[i] += c
				any = any || c > 0
			}
		}
	}
	if !any {
		return nil, nil
	}
	return f.Buckets, counts
}

// famByName finds one family snapshot by metric name.
func famByName(fams []telemetry.FamilySnapshot, name string) *telemetry.FamilySnapshot {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// pushSample appends to a bounded history, dropping the oldest sample.
func pushSample(hist []float64, v float64) []float64 {
	hist = append(hist, v)
	if len(hist) > sparkWidth {
		hist = hist[len(hist)-sparkWidth:]
	}
	return hist
}

// sparkBars are the eight block glyphs sparklines scale into.
var sparkBars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders a value history as unicode block bars scaled to the
// history's own maximum.
func sparkline(hist []float64) string {
	max := 0.0
	for _, v := range hist {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range hist {
		idx := 0
		if max > 0 {
			idx = int(math.Round(v / max * float64(len(sparkBars)-1)))
		}
		sb.WriteRune(sparkBars[idx])
	}
	return sb.String()
}

// duration renders seconds with an auto-scaled unit.
func duration(sec float64) string {
	switch {
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.1fms", sec*1e3)
	case sec >= 1e-6:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	default:
		return fmt.Sprintf("%.0fns", sec*1e9)
	}
}
