package telemetry

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestTracerRingOrderAndDrop(t *testing.T) {
	tr := New(4)
	for i := 0; i < 7; i++ {
		tr.Emit(Event{Kind: KindInterval, Cycle: uint64(i), App: -1, SM: -1})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 7 {
		t.Fatalf("Total = %d, want 7", tr.Total())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		wantCycle := uint64(3 + i) // events 3..6 survive, oldest first
		if e.Cycle != wantCycle {
			t.Errorf("event %d: cycle %d, want %d", i, e.Cycle, wantCycle)
		}
		if e.Seq != uint64(3+i) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, 3+i)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindInterval})
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must behave as an empty disabled tracer")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(Event{Kind: KindJobStarted, App: -1, SM: -1})
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 800 {
		t.Fatalf("Total = %d, want 800", tr.Total())
	}
	// Sequence numbers of the retained window must be contiguous.
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	tr := New(64)
	avg := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KindDASEApp, Cycle: 1, App: 0, SM: -1, Est: 1.5})
	})
	if avg > 0 {
		t.Fatalf("Emit allocates %.1f objects per call, want 0", avg)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	tr := New(16)
	tr.Emit(Event{Kind: KindDASEApp, Cycle: 50_000, App: 0, SM: -1,
		Alpha: 0.42, BLP: 3.1, TimeBank: 100, TimeRow: 50, TimeLLC: 25,
		MBB: true, Est: 2.5, SMs: 8, Note: "DASE-Fair"})
	tr.Emit(Event{Kind: KindSchedDecision, Cycle: 50_000, App: -1, SM: -1,
		CurScore: 1.8, BestScore: 1.2, NApps: 2, Alloc: [MaxApps]int32{10, 6},
		Realloc: true, Note: "DASE-Fair"})
	tr.Emit(Event{Kind: KindJobDone, Wall: 12345678, App: -1, SM: -1,
		Job: "job-1", Note: "done", Attempt: 2, CacheHit: true})

	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNDJSONStrict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("round trip kept %d events, want 3", len(back))
	}
	for i, e := range tr.Events() {
		if back[i] != e {
			t.Errorf("event %d changed in round trip:\n  out: %+v\n  in:  %+v", i, e, back[i])
		}
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := KindInterval; k <= KindJobDone; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if got := KindFromString(name); got != k {
			t.Errorf("KindFromString(%q) = %d, want %d", name, got, k)
		}
	}
}

func TestChromeTraceExportValidates(t *testing.T) {
	tr := New(32)
	tr.Emit(Event{Kind: KindJobQueued, Wall: 1_000_000, App: -1, SM: -1, Job: "job-1"})
	tr.Emit(Event{Kind: KindJobStarted, Wall: 2_000_000, App: -1, SM: -1, Job: "job-1", Attempt: 1})
	tr.Emit(Event{Kind: KindInterval, Cycle: 50_000, App: 0, SM: -1, Alpha: 0.3, BLP: 2, Served: 900, SMs: 8})
	tr.Emit(Event{Kind: KindDASEApp, Cycle: 50_000, App: 0, SM: -1, Alpha: 0.3, Est: 1.9, SMs: 8})
	tr.Emit(Event{Kind: KindSchedDecision, Cycle: 50_000, App: -1, SM: -1, CurScore: 2, BestScore: 1.5, NApps: 2, Alloc: [MaxApps]int32{9, 7}, Realloc: true, Note: "DASE-Fair"})
	tr.Emit(Event{Kind: KindSMDrain, Cycle: 50_001, SM: 3, App: 0})
	tr.Emit(Event{Kind: KindSMAssign, Cycle: 50_040, SM: 3, App: 1})
	tr.Emit(Event{Kind: KindActual, Cycle: 100_000, App: 0, SM: -1, Actual: 2.1})
	tr.Emit(Event{Kind: KindJobDone, Wall: 9_000_000, App: -1, SM: -1, Job: "job-1", Note: "done"})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("our own chrome export fails the schema check: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"job job-1"`, `"dase.est app0"`, `"sched.decision"`, `"sm.drain sm3"`, `"slowdown.actual app0"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `{]`,
		"no array":      `{"foo": 1}`,
		"missing name":  `{"traceEvents":[{"ph":"i","ts":1,"pid":1,"tid":1}]}`,
		"bad phase":     `{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":1,"tid":1}]}`,
		"missing ts":    `{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":1}]}`,
		"X without dur": `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]}`,
		"string counter": `{"traceEvents":[{"name":"x","ph":"C","ts":1,"pid":1,"tid":1,
			"args":{"v":"high"}}]}`,
	}
	for name, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

func TestErrorTimeline(t *testing.T) {
	events := []Event{
		{Kind: KindDASEApp, Cycle: 100_000, App: 1, Est: 3.0},
		{Kind: KindDASEApp, Cycle: 50_000, App: 0, Est: 2.0},
		{Kind: KindDASEApp, Cycle: 100_000, App: 0, Est: 2.4, MBB: true},
		{Kind: KindDASEApp, Cycle: 50_000, App: 1, Est: 3.3},
		{Kind: KindActual, App: 0, Actual: 2.0},
		// App 1 has no actual: errors must be NaN.
	}
	tls := ErrorTimeline(events)
	if len(tls) != 2 {
		t.Fatalf("%d app timelines, want 2", len(tls))
	}
	a0 := tls[0]
	if a0.App != 0 || a0.Actual != 2.0 || len(a0.Points) != 2 {
		t.Fatalf("app 0 timeline wrong: %+v", a0)
	}
	if a0.Points[0].Cycle != 50_000 || a0.Points[1].Cycle != 100_000 {
		t.Fatal("points not sorted by cycle")
	}
	if a0.Points[0].Err != 0 {
		t.Errorf("exact estimate: err %v, want 0", a0.Points[0].Err)
	}
	if got := a0.Points[1].Err; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("err = %v, want 0.2", got)
	}
	if !a0.Points[1].MBB {
		t.Error("MBB flag lost")
	}
	if got := a0.MeanAbsErr(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("MeanAbsErr = %v, want 0.1", got)
	}
	if got := a0.MaxAbsErr(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("MaxAbsErr = %v, want 0.2", got)
	}
	a1 := tls[1]
	if !math.IsNaN(a1.Points[0].Err) || !math.IsNaN(a1.MeanAbsErr()) || !math.IsNaN(a1.MaxAbsErr()) {
		t.Error("app without actual must have NaN errors")
	}
}

// TestTracerGrowsOnDemand pins the ring's lazy allocation: a tracer at the
// default capacity that has seen only a few events holds a few KiB, not the
// full ring, and still reports its events in order.
func TestTracerGrowsOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := New(DefaultCapacity)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindInterval, Cycle: uint64(i), App: -1, SM: -1})
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("a %d-event ring holding 10 events allocated %d bytes, want < 64 KiB", DefaultCapacity, got)
	}
	evs := tr.Events()
	if len(evs) != 10 || tr.Dropped() != 0 {
		t.Fatalf("retained %d events, dropped %d; want 10, 0", len(evs), tr.Dropped())
	}
	for i, e := range evs {
		if e.Cycle != uint64(i) {
			t.Fatalf("event %d: cycle %d", i, e.Cycle)
		}
	}
}
