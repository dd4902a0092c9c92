package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
)

// tracedRun is the shared fixture: a small DASE-Fair simulation of VA+CT
// with tracing on, simulated once per test binary.
var tracedRun = sync.OnceValues(func() ([]telemetry.Event, error) {
	profs := make([]kernels.Profile, 0, 2)
	for _, ab := range []string{"VA", "CT"} {
		p, ok := kernels.ByAbbr(ab)
		if !ok {
			return nil, fmt.Errorf("kernel %s missing from the catalogue", ab)
		}
		profs = append(profs, p)
	}
	tr := telemetry.New(0)
	_, err := sched.Run(context.Background(), config.Default(), profs, []int{8, 8}, 160_000, 5,
		sched.NewDASEFair(), sim.WithTracer(tr))
	return tr.Events(), err
})

// TestRenderFromTracedRun checks the rendered timeline of a traced run end
// to end.
func TestRenderFromTracedRun(t *testing.T) {
	events, err := tracedRun()
	if err != nil {
		t.Fatal(err)
	}

	out, err := render(events, []float64{1.5, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"app 0", "app 1", "actual slowdown 1.500", "actual slowdown 2.000", "mean|err|"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "|") {
		t.Error("no error bars rendered")
	}

	// Without any ground truth the timeline still renders, errors unknown.
	out, err = render(events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no measured slowdown") {
		t.Errorf("expected the no-actual notice:\n%s", out)
	}
}

// TestTracedDASEFairRun checks the fixture itself: DASE-Fair warms up for
// one interval, so 160K cycles of 50K-cycle intervals give every app one
// dase.app event in each of the 2 later intervals; with ground truth added
// each app's error timeline is non-empty and finite; and the fixture's
// NDJSON, fed to run, renders both apps.
func TestTracedDASEFairRun(t *testing.T) {
	events, err := tracedRun()
	if err != nil {
		t.Fatal(err)
	}
	const apps = 2
	wantIntervals := int(160_000/config.Default().IntervalCycles) - 1
	perApp := map[int32]map[uint64]int{}
	for _, e := range events {
		if e.Kind == telemetry.KindDASEApp {
			if perApp[e.App] == nil {
				perApp[e.App] = map[uint64]int{}
			}
			perApp[e.App][e.Cycle]++
		}
	}
	for app := int32(0); app < apps; app++ {
		if got := len(perApp[app]); got != wantIntervals {
			t.Errorf("app %d has dase.app events in %d intervals, want %d", app, got, wantIntervals)
		}
		for cycle, n := range perApp[app] {
			if n != 1 {
				t.Errorf("app %d has %d dase.app events at cycle %d, want 1", app, n, cycle)
			}
		}
	}

	withActual := slices.Clone(events)
	for i := 0; i < apps; i++ {
		withActual = append(withActual, telemetry.Event{
			Kind: telemetry.KindActual, App: int32(i), SM: -1, Actual: 1.5 + 0.5*float64(i),
		})
	}
	timelines := telemetry.ErrorTimeline(withActual)
	if len(timelines) != apps {
		t.Fatalf("%d app timelines, want %d", len(timelines), apps)
	}
	for _, tl := range timelines {
		if len(tl.Points) == 0 {
			t.Errorf("app %d has an empty error timeline", tl.App)
		}
		if m := tl.MeanAbsErr(); math.IsNaN(m) || math.IsInf(m, 0) {
			t.Errorf("app %d has no finite estimation error (%v)", tl.App, m)
		}
	}

	var ndjson, out bytes.Buffer
	if err := telemetry.WriteNDJSON(&ndjson, events); err != nil {
		t.Fatal(err)
	}
	if err := run(nil, &ndjson, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"app 0", "app 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("run output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRenderNoEvents(t *testing.T) {
	if _, err := render(nil, nil); err == nil {
		t.Fatal("want an error for an empty trace")
	}
}

func TestParseActuals(t *testing.T) {
	got, err := parseActuals(" 1.5, 2.25 ")
	if err != nil || len(got) != 2 || got[0] != 1.5 || got[1] != 2.25 {
		t.Fatalf("parseActuals = %v, %v", got, err)
	}
	if v, err := parseActuals(""); v != nil || err != nil {
		t.Fatalf("empty = %v, %v", v, err)
	}
	if _, err := parseActuals("1.5,x"); err == nil {
		t.Fatal("want parse error")
	}
}

func TestErrBar(t *testing.T) {
	cases := []struct {
		err  float64
		want string
	}{
		{0, "|"},
		{0.05, "|>"},
		{-0.12, "<<|"},
		{3, "|>>>>>>>>>>"},
	}
	for _, c := range cases {
		if got := errBar(c.err); got != c.want {
			t.Errorf("errBar(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestRunGolden feeds the traced run's NDJSON to run, once on stdin and once
// as a file argument, and compares stdout with testdata/traced-run.golden.
// The engine is deterministic, so a difference is a behaviour change. To
// regenerate after an intended one:
//
//	rm cmd/dasetrace/testdata/traced-run.golden && go test ./cmd/dasetrace -run TestRunGolden
//
// A missing golden is written and the test fails, so a fresh file is always
// looked at once.
func TestRunGolden(t *testing.T) {
	events, err := tracedRun()
	if err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	if err := telemetry.WriteNDJSON(&ndjson, events); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := os.WriteFile(tracePath, ndjson.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromStdin, fromFile bytes.Buffer
	if err := run([]string{"-actual", "1.5,2.0"}, bytes.NewReader(ndjson.Bytes()), &fromStdin, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-actual", "1.5,2.0", tracePath}, strings.NewReader(""), &fromFile, io.Discard); err != nil {
		t.Fatal(err)
	}
	if fromStdin.String() != fromFile.String() {
		t.Fatalf("stdin and file input render differently:\n%s\nvs\n%s", fromStdin.String(), fromFile.String())
	}
	golden := filepath.Join("testdata", "traced-run.golden")
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, fromStdin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing %s; check it and rerun", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := fromStdin.String(); got != string(want) {
		t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestRunErrors covers every way run refuses its input; none reaches a
// simulation.
func TestRunErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.ndjson")
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
		want  string
	}{
		// The cross-node merge went with the cluster.
		{"deleted-trace-flag", []string{"-trace", "n1.ndjson"}, "", "flag provided but not defined: -trace"},
		{"deleted-chrome-flag", []string{"-chrome", "out.json"}, "", "flag provided but not defined: -chrome"},
		{"two-files", []string{"a.ndjson", "b.ndjson"}, "", "at most one trace file"},
		{"bad-actual", []string{"-actual", "1.5,x"}, "", `bad -actual entry "x"`},
		{"missing-file", []string{missing}, "", "missing.ndjson"},
		{"not-json", nil, "garbage", "line 1"},
		{"unknown-kind", nil, `{"kind":"job.exploded","seq":1,"app":-1,"sm":-1}`, "unknown event kind"},
		{"unknown-field", nil, `{"kind":"job.queued","seq":1,"app":-1,"sm":-1,"mystery":1}`, `unknown field "mystery"`},
		{"retired-span-field", nil, `{"kind":"job.queued","seq":1,"app":-1,"sm":-1,"trace_id":"00000000000000ab"}`, `unknown field "trace_id"`},
		{"no-dase-events", nil, `{"kind":"job.queued","seq":1,"app":-1,"sm":-1}`, "no dase.app events"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(tc.args, strings.NewReader(tc.stdin), &stdout, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty on error: %q", stdout.String())
			}
		})
	}
}
