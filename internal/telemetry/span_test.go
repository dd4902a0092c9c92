package telemetry

import (
	"math"
	"net/http"
	"strings"
	"testing"
)

func TestFormatParseSpanID(t *testing.T) {
	cases := []struct {
		id   uint64
		want string
	}{
		{0, ""},
		{1, "0000000000000001"},
		{0xabcdef0123456789, "abcdef0123456789"},
		{^uint64(0), "ffffffffffffffff"},
	}
	for _, c := range cases {
		if got := FormatSpanID(c.id); got != c.want {
			t.Errorf("FormatSpanID(%#x) = %q, want %q", c.id, got, c.want)
		}
		back, err := ParseSpanID(c.want)
		if err != nil || back != c.id {
			t.Errorf("ParseSpanID(%q) = %#x, %v; want %#x", c.want, back, err, c.id)
		}
	}
	if _, err := ParseSpanID("zzzz"); err == nil {
		t.Error("ParseSpanID accepted non-hex input")
	}
}

func TestSpanContextHeadersRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: 0xabc, SpanID: 0xdef}
	h := http.Header{}
	sc.SetHeaders(h)
	got := SpanFromHeaders(h)
	// The wire flips the caller's span into the callee's parent.
	if got.TraceID != sc.TraceID || got.ParentID != sc.SpanID || got.SpanID != 0 {
		t.Errorf("round trip = %+v, want trace %#x parent %#x", got, sc.TraceID, sc.SpanID)
	}

	// A zero context writes nothing; absent headers parse to zero.
	h2 := http.Header{}
	(SpanContext{}).SetHeaders(h2)
	if len(h2) != 0 {
		t.Errorf("zero context wrote headers: %v", h2)
	}
	if got := SpanFromHeaders(h2); got.Valid() {
		t.Errorf("absent headers parsed to %+v", got)
	}

	// Malformed trace id yields the zero context; malformed span id keeps
	// the trace (better a parentless span than a lost one).
	h3 := http.Header{}
	h3.Set(TraceIDHeader, "not-hex")
	if got := SpanFromHeaders(h3); got.Valid() {
		t.Errorf("malformed trace id parsed to %+v", got)
	}
	h4 := http.Header{}
	h4.Set(TraceIDHeader, FormatSpanID(0xabc))
	h4.Set(SpanIDHeader, "not-hex")
	got = SpanFromHeaders(h4)
	if got.TraceID != 0xabc || got.ParentID != 0 {
		t.Errorf("malformed span id = %+v, want trace kept, parent dropped", got)
	}
}

func TestSpanSourceDeterministic(t *testing.T) {
	a, b := NewSpanSource(7), NewSpanSource(7)
	ra, rb := a.Root(), b.Root()
	if ra != rb {
		t.Fatalf("same-seed roots differ: %+v vs %+v", ra, rb)
	}
	if !ra.Valid() || ra.SpanID == 0 || ra.ParentID != 0 {
		t.Errorf("root = %+v, want valid, parentless", ra)
	}
	if NewSpanSource(8).Root() == ra {
		t.Error("different seeds minted the same root")
	}
}

func TestSpanSourceChild(t *testing.T) {
	s := NewSpanSource(1)
	root := s.Root()
	child := s.Child(root)
	if child.TraceID != root.TraceID || child.ParentID != root.SpanID {
		t.Errorf("child %+v does not continue root %+v", child, root)
	}
	if child.SpanID == 0 || child.SpanID == root.SpanID {
		t.Errorf("child span id %#x not fresh", child.SpanID)
	}

	// A wire context (SpanID zero, ParentID carrying the remote span) keeps
	// that parent.
	wire := SpanContext{TraceID: root.TraceID, ParentID: 0x42}
	c2 := s.Child(wire)
	if c2.TraceID != root.TraceID || c2.ParentID != 0x42 {
		t.Errorf("wire child = %+v, want parent 0x42 carried through", c2)
	}

	// An invalid parent starts a fresh root.
	orphan := s.Child(SpanContext{})
	if !orphan.Valid() || orphan.ParentID != 0 {
		t.Errorf("orphan child = %+v, want a new root", orphan)
	}
}

func TestEventSpanAccessors(t *testing.T) {
	var e Event
	sc := SpanContext{TraceID: 1, SpanID: 2, ParentID: 3}
	e.SetSpan(sc)
	if got := e.Span(); got != sc {
		t.Errorf("Span() = %+v, want %+v", got, sc)
	}
}

func TestReadNDJSONStrictRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindJobQueued, Seq: 1, Wall: 100, App: -1, SM: -1, Job: "j1",
			Node: "n1", TraceID: 0xabc, SpanID: 0xdef, ParentID: 0x123},
		{Kind: KindClusterRPC, Seq: 2, Wall: 200, App: -1, SM: -1, Job: "n2",
			Note: "forward", Node: "n1", Dur: 900, CacheHit: true,
			TraceID: 0xabc, SpanID: 0xbeef},
	}
	var sb strings.Builder
	if err := WriteNDJSON(&sb, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSONStrict(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("strict reader rejected our own output: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d events, want 2", len(got))
	}
	for i := range events {
		if got[i].Span() != events[i].Span() {
			t.Errorf("event %d span = %+v, want %+v", i, got[i].Span(), events[i].Span())
		}
		if got[i].Kind != events[i].Kind || got[i].Job != events[i].Job || got[i].Node != events[i].Node {
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
		{"bad trace id", `{"kind":"job.queued","seq":1,"app":-1,"sm":-1,"trace_id":"nope"}`, "invalid trace_id"},
		{"bad span id", `{"kind":"job.queued","seq":1,"app":-1,"sm":-1,"span_id":"nope"}`, "invalid span_id"},
		{"bad parent id", `{"kind":"job.queued","seq":1,"app":-1,"sm":-1,"parent_id":"nope"}`, "invalid parent_id"},
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

func TestHistogramVecChildren(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("rpc_seconds", "RPC latency.", []float64{0.1, 1}, "method")
	steal := v.With("steal")
	steal.Observe(0.05)
	steal.Observe(0.5)
	v.With("forward").Observe(2)
	// Same labels resolve to the same child.
	v.With("steal").Observe(0.07)

	if steal.Count() != 3 {
		t.Errorf("steal child count = %d, want 3", steal.Count())
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	if n := strings.Count(out, "rpc_seconds_count{"); n != 2 {
		t.Fatalf("%d children, want 2 in:\n%s", n, out)
	}
	for _, want := range []string{
		`rpc_seconds_bucket{method="steal",le="0.1"} 2`,
		`rpc_seconds_count{method="steal"} 3`,
		`rpc_seconds_bucket{method="forward",le="1"} 0`,
		`rpc_seconds_bucket{method="forward",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestChromeTraceSpanArgs(t *testing.T) {
	events := []Event{
		{Kind: KindJobQueued, Seq: 1, Wall: 1000, App: -1, SM: -1, Job: "j1",
			Node: "n1", TraceID: 0xabc, SpanID: 0xdef, ParentID: 0x123},
		{Kind: KindJobDone, Seq: 2, Wall: 2000, App: -1, SM: -1, Job: "j1",
			Node: "n1", TraceID: 0xabc, SpanID: 0xdef, ParentID: 0x123},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if err := ValidateChromeTrace([]byte(out)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{FormatSpanID(0xabc), FormatSpanID(0xdef), `"node n1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %q", want)
		}
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

func TestObserveIgnoresNaN(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "H.", 0.1, 1)
	h.Observe(math.NaN())
	h.Observe(0.05)
	if h.Count() != 1 || h.Sum() != 0.05 {
		t.Errorf("count %d sum %v, want 1 and 0.05 (NaN dropped)", h.Count(), h.Sum())
	}
}

func TestNDJSONSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"kind":"job.queued","seq":1,"app":-1,"sm":-1}` + "\n\n"
	got, err := ReadNDJSONStrict(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Errorf("%d events, err %v; want 1, nil", len(got), err)
	}
}
