package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the bench around the
// call (nothing inside the program under test is instrumented).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Req    int    `json:"req"`    // spans of one request share it
}

// maxSpans bounds the in-memory trace; spans beyond it are counted, not kept.
const maxSpans = 200_000

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per site.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its index for children to name as parent.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// write dumps the trace as JSON.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
