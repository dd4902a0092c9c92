package dasesim

// End-to-end telemetry check: a traced DASE-Fair run must produce a Chrome
// trace that passes the schema validator and contains per-interval DASE
// estimator events for every application, and the trace must yield a
// non-empty estimated-vs-actual error timeline.

import (
	"bytes"
	"context"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
)

func TestTracedDASEFairChromeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped with -short")
	}
	const cycles = 160_000
	profs := detProfiles(t, []string{"VA", "CT"})
	tr := telemetry.New(0)
	res, err := sched.Run(context.Background(), config.Default(), profs, []int{8, 8}, cycles, 5,
		sched.NewDASEFair(), sim.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}

	// Every app must have a dase.app event in every post-warmup interval
	// (DASE-Fair warms up for 1 interval; IntervalCycles is 50k, so 160k
	// cycles → 3 intervals → 2 estimated ones).
	intervals := map[int32]map[uint64]bool{}
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindDASEApp {
			if intervals[e.App] == nil {
				intervals[e.App] = map[uint64]bool{}
			}
			intervals[e.App][e.Cycle] = true
		}
	}
	wantIntervals := int(cycles/config.Default().IntervalCycles) - 1
	for app := int32(0); app < int32(len(profs)); app++ {
		if got := len(intervals[app]); got != wantIntervals {
			t.Errorf("app %d has dase.app events in %d intervals, want %d", app, got, wantIntervals)
		}
	}

	// Fabricate ground truth (a real deployment gets it from the slowdowns
	// computation) so the trace is self-contained for the timeline.
	for i := range profs {
		tr.Emit(telemetry.Event{
			Kind: telemetry.KindActual, Cycle: res.Cycles,
			App: int32(i), SM: -1, Actual: 1.5 + 0.5*float64(i),
		})
	}

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("chrome trace fails schema validation: %v", err)
	}

	timelines := telemetry.ErrorTimeline(tr.Events())
	if len(timelines) != len(profs) {
		t.Fatalf("%d app timelines, want %d", len(timelines), len(profs))
	}
	for _, tl := range timelines {
		if len(tl.Points) == 0 {
			t.Errorf("app %d has an empty error timeline", tl.App)
		}
		if m := tl.MeanAbsErr(); m != m { // NaN
			t.Errorf("app %d has no computable estimation error", tl.App)
		}
	}
}
