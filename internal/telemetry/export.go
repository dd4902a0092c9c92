package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
