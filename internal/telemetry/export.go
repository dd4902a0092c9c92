package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// JSONEvent is the NDJSON wire form of an Event: a flat object with
// omitempty on every field whose zero value means "absent" (App and SM keep
// their -1 sentinel explicitly, since 0 is a valid index for both).
type JSONEvent struct {
	Kind  string `json:"kind"`
	Seq   uint64 `json:"seq"`
	Cycle uint64 `json:"cycle,omitempty"`
	Wall  int64  `json:"wall_ns,omitempty"`
	App   int32  `json:"app"`
	SM    int32  `json:"sm"`

	Job  string `json:"job,omitempty"`
	Note string `json:"note,omitempty"`

	Alpha    float64 `json:"alpha,omitempty"`
	BLP      float64 `json:"blp,omitempty"`
	TimeBank float64 `json:"time_bank,omitempty"`
	TimeRow  float64 `json:"time_row,omitempty"`
	TimeLLC  float64 `json:"time_llc,omitempty"`
	MBB      bool    `json:"mbb,omitempty"`
	Est      float64 `json:"est,omitempty"`
	Actual   float64 `json:"actual,omitempty"`
	Served   uint64  `json:"served,omitempty"`
	SMs      int32   `json:"sms,omitempty"`

	CurScore  float64 `json:"cur_score,omitempty"`
	BestScore float64 `json:"best_score,omitempty"`
	Alloc     []int32 `json:"alloc,omitempty"`
	Realloc   bool    `json:"realloc,omitempty"`

	Attempt  int32 `json:"attempt,omitempty"`
	CacheHit bool  `json:"cache_hit,omitempty"`

	Deserved float64 `json:"deserved,omitempty"`
}

// toJSON converts an Event to its wire form.
func (e *Event) toJSON() JSONEvent {
	j := JSONEvent{
		Kind: e.Kind.String(), Seq: e.Seq, Cycle: e.Cycle, Wall: e.Wall,
		App: e.App, SM: e.SM, Job: e.Job, Note: e.Note,
		Alpha: e.Alpha, BLP: e.BLP,
		TimeBank: e.TimeBank, TimeRow: e.TimeRow, TimeLLC: e.TimeLLC,
		MBB: e.MBB, Est: e.Est, Actual: e.Actual, Served: e.Served, SMs: e.SMs,
		CurScore: e.CurScore, BestScore: e.BestScore, Realloc: e.Realloc,
		Attempt: e.Attempt, CacheHit: e.CacheHit, Deserved: e.Deserved,
	}
	if n := int(e.NApps); n > 0 && n <= MaxApps {
		j.Alloc = append(j.Alloc, e.Alloc[:n]...)
	}
	return j
}

// toEvent converts the wire form back to an Event.
func (j *JSONEvent) toEvent() Event {
	e := Event{
		Kind: KindFromString(j.Kind), Seq: j.Seq, Cycle: j.Cycle, Wall: j.Wall,
		App: j.App, SM: j.SM, Job: j.Job, Note: j.Note,
		Alpha: j.Alpha, BLP: j.BLP,
		TimeBank: j.TimeBank, TimeRow: j.TimeRow, TimeLLC: j.TimeLLC,
		MBB: j.MBB, Est: j.Est, Actual: j.Actual, Served: j.Served, SMs: j.SMs,
		CurScore: j.CurScore, BestScore: j.BestScore, Realloc: j.Realloc,
		Attempt: j.Attempt, CacheHit: j.CacheHit, Deserved: j.Deserved,
	}
	if n := len(j.Alloc); n > 0 && n <= MaxApps {
		e.NApps = int32(n)
		copy(e.Alloc[:], j.Alloc)
	}
	return e
}

// WriteNDJSON streams events as newline-delimited JSON, one object per line,
// oldest first.
func WriteNDJSON(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(events[i].toJSON()); err != nil {
			return fmt.Errorf("telemetry: encode event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadNDJSONStrict parses an NDJSON event stream (blank lines are skipped)
// and treats every schema deviation as an error: unknown event kinds and
// unknown fields fail, naming the offending line. It is
// the one event reader, so a corrupt or foreign stream is rejected loudly
// rather than silently rendered as a partial timeline.
func ReadNDJSONStrict(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var j JSONEvent
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&j); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		if KindFromString(j.Kind) == 0 {
			return nil, fmt.Errorf("telemetry: line %d: unknown event kind %q", line, j.Kind)
		}
		out = append(out, j.toEvent())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read ndjson: %w", err)
	}
	return out, nil
}

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array (the subset of the spec we emit: metadata M, complete X, instant i,
// and counter C phases).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of a Chrome trace.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome trace process ids: the daemon's wall-clock job spans and the
// simulation's cycle-domain events live on separate timelines, so they get
// separate "processes" in the viewer.
const (
	chromePidJobs   = 1
	chromePidCycles = 2
)

// WriteChromeTrace renders events as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. Two synthetic processes separate the time
// domains: pid 1 carries the daemon's job lifecycle on wall-clock
// microseconds; pid 2 carries engine and scheduler events with one
// microsecond standing in for one simulated cycle. Per-app estimates become
// counter tracks ("dase.est", "slowdown.actual", "interval.alpha"), DASE
// internals and SM migrations become instant events, and each job becomes a
// complete span from queued to terminal.
func WriteChromeTrace(w io.Writer, events []Event) error {
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: chromePidJobs, Tid: 0,
			Args: map[string]any{"name": "dased jobs (wall clock)"}},
		{Name: "process_name", Ph: "M", Pid: chromePidCycles, Tid: 0,
			Args: map[string]any{"name": "simulation (cycle domain)"}},
	}}

	// Pass 1: job span boundaries (queued -> terminal wall times).
	type span struct {
		queued, done int64
	}
	spans := map[string]*span{}
	var jobOrder []string
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case KindJobQueued:
			if _, ok := spans[e.Job]; !ok {
				spans[e.Job] = &span{queued: e.Wall}
				jobOrder = append(jobOrder, e.Job)
			}
		case KindJobDone:
			if sp, ok := spans[e.Job]; ok {
				sp.done = e.Wall
			}
		}
	}
	sort.Strings(jobOrder)
	jobTid := make(map[string]int, len(jobOrder))
	for i, id := range jobOrder {
		jobTid[id] = i + 1
	}
	for _, id := range jobOrder {
		sp := spans[id]
		if sp.done > sp.queued {
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "job " + id, Ph: "X",
				Ts: float64(sp.queued) / 1e3, Dur: float64(sp.done-sp.queued) / 1e3,
				Pid: chromePidJobs, Tid: jobTid[id],
			})
		}
	}

	// Pass 2: one chrome event per trace event.
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case KindJobQueued, KindJobStarted, KindJobDone:
			tid := jobTid[e.Job]
			if tid == 0 {
				tid = 1
			}
			args := map[string]any{"job": e.Job}
			if e.Attempt > 0 {
				args["attempt"] = e.Attempt
			}
			if e.Note != "" {
				args["note"] = e.Note
			}
			if e.Kind == KindJobDone {
				args["cache_hit"] = e.CacheHit
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: e.Kind.String(), Ph: "i", Ts: float64(e.Wall) / 1e3,
				Pid: chromePidJobs, Tid: tid, S: "t", Args: args,
			})
		case KindInterval:
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("interval.alpha app%d", e.App), Ph: "C",
				Ts: float64(e.Cycle), Pid: chromePidCycles, Tid: 1,
				Args: map[string]any{"alpha": e.Alpha, "blp": e.BLP, "served": e.Served, "sms": e.SMs},
			})
		case KindDASEApp:
			tr.TraceEvents = append(tr.TraceEvents,
				chromeEvent{
					Name: fmt.Sprintf("dase.est app%d", e.App), Ph: "C",
					Ts: float64(e.Cycle), Pid: chromePidCycles, Tid: 1,
					Args: map[string]any{"slowdown": e.Est},
				},
				chromeEvent{
					Name: fmt.Sprintf("dase.app app%d", e.App), Ph: "i",
					Ts: float64(e.Cycle), Pid: chromePidCycles, Tid: 1, S: "t",
					Args: map[string]any{
						"alpha": e.Alpha, "blp": e.BLP,
						"time_bank": e.TimeBank, "time_row": e.TimeRow, "time_llc": e.TimeLLC,
						"mbb": e.MBB, "est": e.Est, "sms": e.SMs,
					},
				})
		case KindActual:
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("slowdown.actual app%d", e.App), Ph: "C",
				Ts: float64(e.Cycle), Pid: chromePidCycles, Tid: 1,
				Args: map[string]any{"slowdown": e.Actual},
			})
		case KindSchedDecision:
			args := map[string]any{
				"policy": e.Note, "cur_score": e.CurScore, "best_score": e.BestScore,
				"realloc": e.Realloc,
			}
			if n := int(e.NApps); n > 0 && n <= MaxApps {
				args["alloc"] = fmt.Sprint(e.Alloc[:n])
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "sched.decision", Ph: "i", Ts: float64(e.Cycle),
				Pid: chromePidCycles, Tid: 1, S: "t", Args: args,
			})
		case KindSMDrain, KindSMAssign:
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("%s sm%d", e.Kind, e.SM), Ph: "i",
				Ts: float64(e.Cycle), Pid: chromePidCycles, Tid: 1, S: "t",
				Args: map[string]any{"app": e.App},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// ValidateChromeTrace checks that data is structurally valid Chrome
// trace-event JSON: an object with a traceEvents array whose entries carry a
// name, a known phase, numeric ts/pid/tid, a dur on complete events, and
// JSON-object args. It is the schema check CI runs against a freshly traced
// simulation, and a debugging aid for foreign traces.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("telemetry: chrome trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("telemetry: chrome trace has no traceEvents array")
	}
	known := map[string]bool{"M": true, "X": true, "i": true, "C": true, "B": true, "E": true}
	for i, ev := range doc.TraceEvents {
		var name, ph string
		if err := unmarshalField(ev, "name", &name); err != nil || name == "" {
			return fmt.Errorf("telemetry: traceEvents[%d]: missing or invalid name", i)
		}
		if err := unmarshalField(ev, "ph", &ph); err != nil || !known[ph] {
			return fmt.Errorf("telemetry: traceEvents[%d] (%s): missing or unknown phase %q", i, name, ph)
		}
		var num float64
		for _, f := range []string{"ts", "pid", "tid"} {
			if ph == "M" && f == "ts" {
				continue // metadata events may omit ts
			}
			if err := unmarshalField(ev, f, &num); err != nil {
				return fmt.Errorf("telemetry: traceEvents[%d] (%s): field %s: %v", i, name, f, err)
			}
		}
		if ph == "X" {
			if err := unmarshalField(ev, "dur", &num); err != nil || num < 0 {
				return fmt.Errorf("telemetry: traceEvents[%d] (%s): complete event needs non-negative dur", i, name)
			}
		}
		if raw, ok := ev["args"]; ok {
			var args map[string]any
			if err := json.Unmarshal(raw, &args); err != nil {
				return fmt.Errorf("telemetry: traceEvents[%d] (%s): args is not an object: %v", i, name, err)
			}
			if ph == "C" {
				for k, v := range args {
					switch v.(type) {
					case float64, bool:
					default:
						return fmt.Errorf("telemetry: traceEvents[%d] (%s): counter arg %q is not numeric", i, name, k)
					}
				}
			}
		}
	}
	return nil
}

// unmarshalField decodes one field of a raw JSON object into dst; a missing
// field is an error.
func unmarshalField(obj map[string]json.RawMessage, key string, dst any) error {
	raw, ok := obj[key]
	if !ok {
		return fmt.Errorf("missing")
	}
	return json.Unmarshal(raw, dst)
}
