package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
)

// promFamily is one parsed metric family from text exposition output.
type promFamily struct {
	typ     string
	samples int
}

// parsePrometheus is a small text-exposition parser: it checks line-level
// syntax (HELP/TYPE comments, `name{labels} value` samples) and returns the
// families with their sample counts.
func parsePrometheus(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var cur string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			cur = name
			if fams[name] == nil {
				fams[name] = &promFamily{}
			}
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name != cur {
				t.Fatalf("line %d: TYPE out of order or malformed: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, typ)
			}
			fams[name].typ = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			// Histogram children report under <name>_bucket/_sum/_count.
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				trimmed := strings.TrimSuffix(name, suffix)
				if trimmed != name && fams[trimmed] != nil && fams[trimmed].typ == "histogram" {
					base = trimmed
					break
				}
			}
			fam := fams[base]
			if fam == nil {
				t.Fatalf("line %d: sample %q without a preceding HELP/TYPE", ln+1, line)
			}
			fields := strings.Fields(line[strings.IndexAny(line, " "):])
			if len(fields) != 1 {
				t.Fatalf("line %d: want `name value`: %q", ln+1, line)
			}
			fam.samples++
		}
	}
	return fams
}

// TestMetricsExposition asserts that every family the registry knows is
// exposed with a correct TYPE line and at least one sample.
func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	v, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB", "SD"}})
	waitDone(t, ts, v.ID)

	// The worker observes the job's duration just after publishing its
	// terminal status, so a loaded machine can answer the first scrape
	// before the histogram has the job.
	text := fetchMetrics(t, ts)
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(text, "dased_job_duration_seconds_count 1") && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		text = fetchMetrics(t, ts)
	}
	fams := parsePrometheus(t, text)

	for _, f := range s.metrics.reg.Families() {
		got := fams[f.Name]
		if got == nil {
			t.Errorf("registered metric %s missing from exposition", f.Name)
			continue
		}
		if got.typ != f.Type {
			t.Errorf("metric %s exposed as %s, want %s", f.Name, got.typ, f.Type)
		}
		if got.samples == 0 {
			t.Errorf("metric %s has no samples", f.Name)
		}
	}
	// Spot checks: histogram anatomy and build info.
	for _, want := range []string{
		`dased_job_duration_seconds_bucket{le="+Inf"} 1`,
		"dased_job_duration_seconds_count 1",
		"dased_queue_wait_seconds_count 1",
		`dased_build_info{go_version="go`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, gone := range []string{"dased_journal_", "dased_job_retries_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("deleted family %s is exposed", gone)
		}
	}
}

// TestTracedJobEndToEnd runs a DASE-Fair slowdowns job on a tracing server
// and checks the served trace, the trace file (the same events), and the
// estimation-error histogram.
func TestTracedJobEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{
		Workers: 1, TraceDir: dir, DefaultCycles: 120_000,
	})
	v, _ := postJob(t, ts, JobRequest{
		Kernels: []string{"VA", "CT"}, Policy: "fair", Slowdowns: true,
	})
	final := waitDone(t, ts, v.ID)
	if final.Status != StatusDone {
		t.Fatalf("job status %s: %s", final.Status, final.Error)
	}

	// The served trace: lifecycle + engine + estimator events, ground truth
	// included.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace Content-Type %q, want application/x-ndjson", ct)
	}
	events, err := telemetry.ReadNDJSONStrict(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[telemetry.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []telemetry.Kind{
		telemetry.KindJobQueued, telemetry.KindJobStarted, telemetry.KindJobDone,
		telemetry.KindInterval, telemetry.KindDASEApp, telemetry.KindSchedDecision,
		telemetry.KindActual,
	} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %s events", k)
		}
	}
	if tls := telemetry.ErrorTimeline(events); len(tls) != 2 {
		t.Errorf("%d app timelines from the served trace, want 2", len(tls))
	}

	// The runner writes the trace file after the job is visibly done (file
	// I/O stays off the job path) and renames it into place whole, so once
	// it exists it holds exactly the served events.
	path := filepath.Join(dir, v.ID+".trace.ndjson")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if fi, err := os.Stat(path); err == nil {
			if fi.Mode().Perm() != 0o644 {
				t.Errorf("trace file mode %v, want 0644", fi.Mode().Perm())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no trace file %s", path)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromFile, err := telemetry.ReadNDJSONStrict(f)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if !slices.Equal(fromFile, events) {
		t.Errorf("trace file holds %d events that differ from the %d served", len(fromFile), len(events))
	}

	// Slowdowns were computed, so the estimation-error histogram filled.
	if s.metrics.estError.Count() == 0 {
		t.Error("estimation-error histogram empty after a slowdowns job")
	}

	// An untraced server 404s the endpoint.
	_, ts2 := newTestServer(t, Options{Workers: 1})
	v2, _ := postJob(t, ts2, JobRequest{Kernels: []string{"SB"}})
	waitDone(t, ts2, v2.ID)
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace", ts2.URL, v2.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("untraced server: status %d, want 404", resp2.StatusCode)
	}
}

// TestQueuedCancelWritesTraceFile: a job DELETEd while still queued gets its
// trace file like any other terminal job, holding the endpoint's events: its
// queued and canceled lifecycle.
func TestQueuedCancelWritesTraceFile(t *testing.T) {
	dir := t.TempDir()
	s := newIdleServer(t, Options{Workers: 1, TraceDir: dir})
	started := make(chan struct{})
	s.simulate = func(ctx context.Context, _ plan, _ *telemetry.Tracer) (*sim.Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	long, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB"}, Cycles: testCycles})
	<-started
	queued, _ := postJob(t, ts, JobRequest{Kernels: []string{"SD"}, Cycles: testCycles})
	cancelJob(t, ts, queued.ID, http.StatusOK)
	defer cancelJob(t, ts, long.ID, http.StatusOK)

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, queued.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	served, err := telemetry.ReadNDJSONStrict(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(served) != 2 || served[0].Kind != telemetry.KindJobQueued ||
		served[1].Kind != telemetry.KindJobDone || served[1].Note != string(StatusCanceled) {
		t.Fatalf("served trace %+v, want job.queued then job.done (canceled)", served)
	}
	f, err := os.Open(filepath.Join(dir, queued.ID+".trace.ndjson"))
	if err != nil {
		t.Fatalf("no trace file for the job canceled while queued: %v", err)
	}
	defer f.Close()
	fromFile, err := telemetry.ReadNDJSONStrict(f)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if !slices.Equal(fromFile, served) {
		t.Errorf("trace file holds %+v, the endpoint serves %+v", fromFile, served)
	}
}

// TestCacheHitTraceIsLifecycleOnly documents the cache interplay: a repeated
// submission is served from the result cache, so its trace carries lifecycle
// events but no simulation events.
func TestCacheHitTraceIsLifecycleOnly(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, TraceEvents: 1024})
	req := JobRequest{Kernels: []string{"SB", "SD"}}
	v1, _ := postJob(t, ts, req)
	waitDone(t, ts, v1.ID)
	v2, _ := postJob(t, ts, req)
	final := waitDone(t, ts, v2.ID)
	if !final.CacheHit {
		t.Fatal("second identical job was not a cache hit")
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, v2.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, err := telemetry.ReadNDJSONStrict(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lifecycle, simEvents int
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindJobQueued, telemetry.KindJobStarted, telemetry.KindJobDone:
			lifecycle++
		default:
			simEvents++
		}
	}
	if lifecycle < 3 {
		t.Errorf("cache-hit trace has %d lifecycle events, want >= 3", lifecycle)
	}
	if simEvents != 0 {
		t.Errorf("cache-hit trace has %d simulation events, want 0", simEvents)
	}
}
