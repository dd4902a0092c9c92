package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"dasesim/internal/metrics"
)

// tinySizes shrinks every work count so all eight workloads, untraced and
// traced, run in a few seconds. It is a test-only parameter, not a flag.
func tinySizes() sizes {
	return sizes{
		Setups: 1, Clients: 2,
		SimSliceCycles: 1_000, SimAloneCycles: 10_000,
		SimMem2Cycles: 60_000, SimCmp4Cycles: 60_000, LayerReplayCycle: 5_000,
		WarmupSeconds: 0.02, MeasureSeconds: 0.15,
		CorpusSnapshots: 8, CorpusIntervalCycles: 5_000, CorpusSnapsPerSim: 8,
		CheckEvery: 8, LayerSamples: 64,
		ColdJobs: 4, ColdDirectEach: 2, HitJobs: 4, JobCycles: 20_000,
		FleetModelIntervals: 200, FleetModelPrefix: 50,
		FleetSimIntervals: 2, FleetSimPrefix: 1,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// lastLine decodes the one-line JSON result print ends with.
func lastLine(t *testing.T, out string) (res struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

// TestWorkloads runs every workload untraced and traced at tiny size and
// checks the shape of what it emits: each end-to-end metric exactly once per
// workload with its unit and a non-zero value, every per-layer metric in the
// traced result line and measured by at least one workload, no failed
// operation or correctness check.
func TestWorkloads(t *testing.T) {
	measured := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %v", w.Name, nameRE)
		}
		for _, traced := range []bool{false, true} {
			p := &params{seed: 7, sz: tinySizes()}
			specs := endToEnd
			if traced {
				p.tr = newTracer()
				specs = perLayer
			}
			rep, err := runWorkload(w, p)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s (traced %v): fail share %d/%d: %v", w.Name, traced, rep.Failed, rep.Attempted, rep.Failures)
			}
			var buf bytes.Buffer
			rep.print(&buf)
			res := lastLine(t, buf.String())
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (traced %v): result line says correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s (traced %v): result line has %d metrics, want %d", w.Name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s (traced %v): metric %s: present=%v unit %q, want %q", w.Name, traced, s.Name, ok, m.Unit, s.Unit)
				}
				lines := strings.Count(buf.String(), w.Name+" "+s.Name+" ")
				_, isMeasured := rep.Metrics[s.Name]
				switch {
				case !traced && (lines != 1 || m.Value == 0 || math.IsNaN(m.Value)):
					t.Errorf("%s: end-to-end metric %s printed %d times with value %v", w.Name, s.Name, lines, m.Value)
				case traced && isMeasured && lines != 1:
					t.Errorf("%s: layer metric %s printed %d times", w.Name, s.Name, lines)
				case traced && !isMeasured && m.Value != 0:
					t.Errorf("%s: unmeasured layer metric %s reads %v", w.Name, s.Name, m.Value)
				}
				if traced && isMeasured {
					measured[s.Name] = true
				}
			}
			if traced && len(p.tr.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
		}
	}
	for _, s := range perLayer {
		if !measured[s.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", s.Name)
		}
	}
}

// TestBenchmarkJSON pins the names, units, directions and workloads in the
// root BENCHMARK.json to the ones the runner emits.
func TestBenchmarkJSON(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bf.Command, " "); got != "go run ./bench" {
		t.Errorf("command %q", got)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v", bf.Paths)
	}
	if bf.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, sizes are quoted for %d", bf.RunSeconds, refSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, runner has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q / %q, runner has %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, specs []metricSpec) {
		if i >= len(specs) {
			t.Errorf("%s %s: not emitted by the runner", kind, name)
			return
		}
		s := specs[i]
		if name != s.Name || unit != s.Unit || better != s.Better {
			t.Errorf("%s %d: %s/%s/%s, runner has %s/%s/%s", kind, i, name, unit, better, s.Name, s.Unit, s.Better)
		}
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s %s: bad or repeated name", kind, name)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Errorf("%d end-to-end and %d per-layer metrics, runner has %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be listed and carry the largest bound (has %v, max %v)", setupBound, maxBound)
	}
	for i, m := range bf.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
	if q1, q3 = quartiles([]float64{50, 10, 40, 20, 30}); q1 != 15 || q3 != 45 {
		t.Errorf("quartiles = %v, %v; want 15, 45", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	seg := func(vs ...float64) metricValue { return metricValue{Value: metrics.Median(vs), Segments: vs} }
	for _, c := range []struct {
		name   string
		a, b   metricValue
		better string
		bound  float64
		want   string
	}{
		{"same", seg(100, 101, 99, 100, 100), seg(100, 101, 99, 100, 100), "higher", 0.05, within},
		{"throughput down 10%", seg(100, 101, 99, 100, 100), seg(90, 91, 89, 90, 90), "higher", 0.05, worse},
		{"throughput up 10%", seg(100, 101, 99, 100, 100), seg(110, 111, 109, 110, 110), "higher", 0.05, within},
		{"latency up 20%", seg(10, 10, 10, 10, 10), seg(12, 12, 12, 12, 12), "lower", 0.10, worse},
		{"latency down", seg(10, 10, 10, 10, 10), seg(8, 8, 8, 8, 8), "lower", 0.10, within},
		// Segments differ by phase, but the same way in both runs: paired
		// ratios see through it.
		{"phases", seg(50, 100, 150, 100, 70), seg(51, 99, 151, 100, 70), "higher", 0.05, within},
		{"noisy", seg(100, 100, 100, 100, 100), seg(80, 125, 100, 70, 130), "higher", 0.05, unresolved},
		{"single values", metricValue{Value: 100}, metricValue{Value: 120}, "lower", 0.10, worse},
	} {
		if got, _, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
