package main

import (
	"strings"
	"testing"

	"dasesim/internal/telemetry"
)

// byNodeGauge builds a one-family by-node snapshot: name with a leading
// "node" label and one point per node→value pair.
func byNodeGauge(name string, values map[string]float64, extraLabel ...string) telemetry.FamilySnapshot {
	f := telemetry.FamilySnapshot{
		Name: name, Type: "gauge", LabelNames: append([]string{"node"}, extraLabel...),
	}
	for node, v := range values {
		f.Points = append(f.Points, telemetry.PointSnapshot{
			LabelValues: []string{node}, Value: v,
		})
	}
	return f
}

func testFrame() Frame {
	latency := telemetry.FamilySnapshot{
		Name: "dased_estimate_latency_seconds", Type: "histogram",
		LabelNames: []string{"node"},
		Buckets:    []float64{0.0001, 0.001, 0.01},
		Points: []telemetry.PointSnapshot{
			{LabelValues: []string{"n1"}, BucketCounts: []uint64{90, 8, 2, 0}, Sum: 0.02, Count: 100},
			{LabelValues: []string{"n2"}, BucketCounts: []uint64{50, 50, 0, 0}, Sum: 0.03, Count: 100},
		},
	}
	slo := telemetry.FamilySnapshot{
		Name: "dased_slo_burn_rate", Type: "gauge", LabelNames: []string{"node", "objective"},
		Points: []telemetry.PointSnapshot{
			{LabelValues: []string{"n1", "dase-error"}, Value: 0.2},
			{LabelValues: []string{"n2", "dase-error"}, Value: 15},
			{LabelValues: []string{"n1", "estimate-latency-p99"}, Value: 0.1},
		},
	}
	alerting := telemetry.FamilySnapshot{
		Name: "dased_slo_alerting", Type: "gauge", LabelNames: []string{"node", "objective"},
		Points: []telemetry.PointSnapshot{
			{LabelValues: []string{"n2", "dase-error"}, Value: 1},
			{LabelValues: []string{"n1", "estimate-latency-p99"}, Value: 0},
		},
	}
	return Frame{
		Nodes: []string{"n2", "n1"},
		Families: []telemetry.FamilySnapshot{
			byNodeGauge("dased_queue_depth", map[string]float64{"n1": 4, "n2": 0}),
			byNodeGauge("dased_jobs_running", map[string]float64{"n1": 2, "n2": 1}),
			byNodeGauge("dased_cache_hits_total", map[string]float64{"n1": 75, "n2": 0}),
			byNodeGauge("dased_cache_misses_total", map[string]float64{"n1": 25, "n2": 0}),
			byNodeGauge("dased_jobs_completed_total", map[string]float64{"n1": 100, "n2": 40}),
			latency, slo, alerting,
		},
	}
}

func fleetEvents() []telemetry.Event {
	return []telemetry.Event{
		// Older interval: must be ignored in favor of interval 5.
		{Kind: telemetry.KindFleetInterval, Cycle: 4, App: 0, SM: -1, Note: "acme",
			SMs: 2, Deserved: 8},
		{Kind: telemetry.KindFleetInterval, Cycle: 5, App: 0, SM: -1, Note: "acme",
			SMs: 8, Served: 1, Est: 1.5, Deserved: 8},
		{Kind: telemetry.KindFleetInterval, Cycle: 5, App: 1, SM: -1, Note: "zeta",
			SMs: 4, Deserved: 8},
	}
}

func TestRenderNodeTable(t *testing.T) {
	m := NewModel()
	m.Observe(testFrame(), nil, 0)
	out := m.Render()

	for _, want := range []string{
		"2 node(s)",
		"NODE", "QUEUE", "CACHE HIT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Nodes sorted; n1 hit rate 75/(75+25) = 75%, n2 has no lookups.
	n1 := lineWith(t, out, "n1")
	if !strings.Contains(n1, "75.0%") {
		t.Errorf("n1 row lacks 75.0%% cache hit rate: %q", n1)
	}
	n2 := lineWith(t, out, "n2")
	if !strings.Contains(n2, "-") {
		t.Errorf("n2 row should show '-' for no cache traffic: %q", n2)
	}
	if strings.Index(out, "n1") > strings.Index(out, "n2") {
		t.Errorf("nodes not sorted:\n%s", out)
	}
}

func TestThroughputNeedsTwoPolls(t *testing.T) {
	m := NewModel()
	f := testFrame()
	m.Observe(f, nil, 0)
	if n1 := lineWith(t, m.Render(), "n1"); !strings.Contains(n1, "-") {
		t.Errorf("first poll should show '-' throughput: %q", n1)
	}

	// 10 more jobs on n1 over 2 seconds → 5.0 jobs/s.
	f2 := testFrame()
	for i := range f2.Families {
		if f2.Families[i].Name == "dased_jobs_completed_total" {
			for j := range f2.Families[i].Points {
				if f2.Families[i].Points[j].LabelValues[0] == "n1" {
					f2.Families[i].Points[j].Value = 110
				}
			}
		}
	}
	m.Observe(f2, nil, 2)
	if n1 := lineWith(t, m.Render(), "n1"); !strings.Contains(n1, "5.0") {
		t.Errorf("n1 throughput should be 5.0 jobs/s: %q", n1)
	}
}

func TestRenderLatencySparklines(t *testing.T) {
	m := NewModel()
	m.Observe(testFrame(), nil, 0)
	out := m.Render()
	if !strings.Contains(out, "ESTIMATE LATENCY") {
		t.Fatalf("no latency section:\n%s", out)
	}
	if !strings.Contains(out, "p50") || !strings.Contains(out, "p99") {
		t.Errorf("latency section lacks quantiles:\n%s", out)
	}
	for _, r := range "▁▂▃▄▅▆▇█" {
		if strings.ContainsRune(out, r) {
			return
		}
	}
	t.Errorf("no sparkline glyphs in output:\n%s", out)
}

func TestSparklineHistoryBounded(t *testing.T) {
	m := NewModel()
	for i := 0; i < 3*sparkWidth; i++ {
		m.Observe(testFrame(), nil, 1)
	}
	if len(m.p50) != sparkWidth || len(m.p99) != sparkWidth {
		t.Errorf("history len = %d/%d, want %d", len(m.p50), len(m.p99), sparkWidth)
	}
}

func TestRenderTenants(t *testing.T) {
	m := NewModel()
	m.Observe(testFrame(), fleetEvents(), 0)
	out := m.Render()

	acme := lineWith(t, out, "acme")
	// Latest interval (5) wins over the stale interval-4 row: alloc 8, not 2.
	if !strings.Contains(acme, "8") || !strings.Contains(acme, "1.50") {
		t.Errorf("acme row = %q, want alloc 8 and slowdown 1.50", acme)
	}
	// Jain over ratios {8/8, 4/8} = (1.5)²/(2·1.25) = 0.9.
	if !strings.Contains(out, "Jain fairness index: 0.900") {
		t.Errorf("Jain index missing or wrong:\n%s", out)
	}
}

func TestRenderSLO(t *testing.T) {
	m := NewModel()
	m.Observe(testFrame(), nil, 0)
	out := m.Render()

	// dase-error takes the max across nodes (15, alerting on n2).
	row := lineWith(t, out, "dase-error")
	if !strings.Contains(row, "15.00") || !strings.Contains(row, "ALERTING") {
		t.Errorf("dase-error row = %q, want burn 15.00 ALERTING", row)
	}
	lat := lineWith(t, out, "estimate-latency-p99")
	if !strings.Contains(lat, "ok") {
		t.Errorf("estimate-latency-p99 row = %q, want ok", lat)
	}
}

func TestRenderEmptyFrame(t *testing.T) {
	m := NewModel()
	m.Observe(Frame{}, nil, 0)
	out := m.Render()
	if !strings.Contains(out, "0 node(s)") {
		t.Errorf("empty frame render:\n%s", out)
	}
	// No fleet events, no SLO, no latency — only the header and node table.
	for _, absent := range []string{"ESTIMATE LATENCY", "TENANT", "SLO"} {
		if strings.Contains(out, absent) {
			t.Errorf("empty frame should not render %q section:\n%s", absent, out)
		}
	}
}

func TestSparklineScaling(t *testing.T) {
	s := sparkline([]float64{0, 0.5, 1})
	if s != "▁▅█" {
		t.Errorf("sparkline = %q, want ▁▅█", s)
	}
	if flat := sparkline([]float64{0, 0}); flat != "▁▁" {
		t.Errorf("flat sparkline = %q", flat)
	}
}

func TestDurationUnits(t *testing.T) {
	cases := map[float64]string{
		2.5:       "2.50s",
		0.012:     "12.0ms",
		0.0000124: "12.4µs",
		2e-8:      "20ns",
	}
	for in, want := range cases {
		if got := duration(in); got != want {
			t.Errorf("duration(%v) = %q, want %q", in, got, want)
		}
	}
}

// lineWith returns the first rendered line containing substr.
func lineWith(t *testing.T, out, substr string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	t.Fatalf("no line containing %q in:\n%s", substr, out)
	return ""
}
