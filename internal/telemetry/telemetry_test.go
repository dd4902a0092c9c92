package telemetry

import (
	"bytes"
	"math"
	"reflect"
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

// roundTripEvents holds one event of every kind, together setting every
// Event field to a non-zero value (TestRoundTripEventsSetEveryField), so a
// field that toJSON or toEvent drops fails TestNDJSONRoundTrip.
var roundTripEvents = []Event{
	{Kind: KindInterval, Seq: 1, Cycle: 50_000, App: 0, SM: -1, Alpha: 0.3, BLP: 2, Served: 900, SMs: 8},
	{Kind: KindSMDrain, Seq: 2, Cycle: 50_001, App: 0, SM: 3},
	{Kind: KindSMAssign, Seq: 3, Cycle: 50_040, App: 1, SM: 3},
	{Kind: KindDASEApp, Seq: 4, Cycle: 50_000, App: 0, SM: -1,
		Alpha: 0.42, BLP: 3.1, TimeBank: 100, TimeRow: 50, TimeLLC: 25,
		MBB: true, Est: 2.5, SMs: 8, Note: "DASE-Fair"},
	{Kind: KindSchedDecision, Seq: 5, Cycle: 50_000, App: -1, SM: -1,
		CurScore: 1.8, BestScore: 1.2, NApps: 2, Alloc: [MaxApps]int32{10, 6},
		Realloc: true, Note: "DASE-Fair"},
	{Kind: KindActual, Seq: 6, Cycle: 100_000, App: 1, SM: -1, Actual: 2.1},
	{Kind: KindJobQueued, Seq: 7, Wall: 1_000_000, App: -1, SM: -1, Job: "job-1"},
	{Kind: KindJobStarted, Seq: 8, Wall: 2_000_000, App: -1, SM: -1, Job: "job-1", Attempt: 1},
	{Kind: KindJobDone, Seq: 9, Wall: 12_345_678, App: -1, SM: -1,
		Job: "job-1", Note: "done", Attempt: 2, CacheHit: true},
	{Kind: KindFleetJob, Seq: 10, Cycle: 3, App: 1, SM: 2, Job: "j1", Note: "place", SMs: 4},
	{Kind: KindFleetInterval, Seq: 11, Cycle: 3, App: 0, SM: -1, Note: "tenant-a",
		SMs: 12, Served: 2, Est: 1.25, Deserved: 0.5},
}

// TestNDJSONRoundTrip carries one event of every kind through WriteNDJSON
// and the strict reader.
func TestNDJSONRoundTrip(t *testing.T) {
	seen := map[Kind]bool{}
	for _, e := range roundTripEvents {
		seen[e.Kind] = true
	}
	if len(seen) != len(kindNames) || len(roundTripEvents) != len(kindNames) {
		t.Fatalf("%d events of %d kinds, want one of each of the %d kinds", len(roundTripEvents), len(seen), len(kindNames))
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, roundTripEvents); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNDJSONStrict(&buf)
	if err != nil {
		t.Fatalf("strict reader rejected our own output: %v", err)
	}
	if len(back) != len(roundTripEvents) {
		t.Fatalf("round trip kept %d events, want %d", len(back), len(roundTripEvents))
	}
	for i, e := range roundTripEvents {
		if back[i] != e {
			t.Errorf("%s event changed in round trip:\n  out: %+v\n  in:  %+v", e.Kind, e, back[i])
		}
	}
}

// TestRoundTripEventsSetEveryField guards the round-trip table: a field that
// no event sets could be dropped from the wire form unnoticed.
func TestRoundTripEventsSetEveryField(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	for f := 0; f < typ.NumField(); f++ {
		set := false
		for i := range roundTripEvents {
			if !reflect.ValueOf(roundTripEvents[i]).Field(f).IsZero() {
				set = true
				break
			}
		}
		if !set {
			t.Errorf("no round-trip event sets Event.%s", typ.Field(f).Name)
		}
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	if len(kindNames) != int(KindFleetInterval) {
		t.Fatalf("%d kind names for %d kinds", len(kindNames), KindFleetInterval)
	}
	for k := KindInterval; k <= KindFleetInterval; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if got := KindFromString(name); got != k {
			t.Errorf("KindFromString(%q) = %d, want %d", name, got, k)
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

// TestReadNDJSONStrictRoundTrip carries a wrapped tracer's events, whose
// sequence numbers the tracer assigned and which no longer start at zero,
// through WriteNDJSON and the strict reader, as a served trace travels.
func TestReadNDJSONStrictRoundTrip(t *testing.T) {
	tr := New(len(roundTripEvents) - 3)
	for _, e := range roundTripEvents {
		tr.Emit(e)
	}
	events := tr.Events()
	if events[0].Seq != 3 {
		t.Fatalf("oldest retained event has seq %d, want 3", events[0].Seq)
	}
	var sb strings.Builder
	if err := WriteNDJSON(&sb, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSONStrict(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("strict reader rejected our own output: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReadNDJSONStrictRejects(t *testing.T) {
	cases := []struct {
		name, line, wantErr string
	}{
		{"unknown kind", `{"kind":"job.exploded","seq":1,"app":-1,"sm":-1}`, "unknown event kind"},
		{"unknown field", `{"kind":"job.queued","seq":1,"app":-1,"sm":-1,"mystery":1}`, "mystery"},
		// The cross-node span fields are gone from the schema: a stream that
		// still carries them is foreign and refused, not half-read.
		{"retired trace id", `{"kind":"job.queued","seq":1,"app":-1,"sm":-1,"trace_id":"00000000000000ab"}`, "trace_id"},
		{"retired span id", `{"kind":"job.queued","seq":1,"app":-1,"sm":-1,"span_id":"00000000000000ab"}`, "span_id"},
		{"retired parent id", `{"kind":"job.queued","seq":1,"app":-1,"sm":-1,"parent_id":"00000000000000ab"}`, "parent_id"},
		{"retired kind", `{"kind":"cluster.rpc","seq":1,"app":-1,"sm":-1}`, "unknown event kind"},
		{"retired job retry", `{"kind":"job.retry","seq":1,"app":-1,"sm":-1}`, "unknown event kind"},
		{"not json", `garbage`, "line 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := `{"kind":"job.queued","seq":1,"app":-1,"sm":-1}` + "\n" + c.line + "\n"
			_, err := ReadNDJSONStrict(strings.NewReader(in))
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
			if !strings.Contains(err.Error(), "line 2") {
				t.Errorf("error %q does not name line 2", err)
			}
		})
	}
}

func TestNDJSONSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"kind":"job.queued","seq":1,"app":-1,"sm":-1}` + "\n\n"
	got, err := ReadNDJSONStrict(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Errorf("%d events, err %v; want 1, nil", len(got), err)
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := New(0)
	tr.Emit(Event{Kind: KindJobQueued, App: -1, SM: -1})
	if tr.Len() != 1 || cap(tr.Events()) == 0 {
		t.Errorf("default-capacity tracer: len %d", tr.Len())
	}
}

func TestKindStringUnknown(t *testing.T) {
	if got := Kind(255).String(); got != "unknown" {
		t.Errorf("Kind(255).String() = %q", got)
	}
	if got := KindFromString("no.such.kind"); got != 0 {
		t.Errorf("KindFromString = %v, want 0", got)
	}
}
