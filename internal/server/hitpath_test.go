package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dasesim/internal/sim"
)

// The tests here cover the cache-hit round trip and the job table without
// simulating: results are put in the cache first (seedCache), or the server
// is never started.

// seedCache puts res in s's result cache under req's content address, so
// req's job is a cache hit.
func seedCache(t testing.TB, s *Server, req JobRequest, res *sim.Result) {
	t.Helper()
	pl, err := s.buildPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(pl.key, res)
}

// newIdleServer builds a server whose worker pool does not run until the
// test calls Start, so every accepted job stays queued until then (or until
// the test cancels it), and a test can substitute the simulation first.
func newIdleServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

// hitResult is a small two-app, two-interval result shaped like a real one.
func hitResult() *sim.Result {
	apps := []sim.AppInterval{{SMs: 8}, {SMs: 8}}
	return &sim.Result{
		Cycles: 100_000,
		Apps: []sim.AppResult{
			{Abbr: "SB", Instructions: 1_234_567, IPC: 12.3, Alpha: 0.4, Served: 8_000, RowHitRate: 0.25},
			{Abbr: "SD", Instructions: 7_654_321, IPC: 76.5, Alpha: 0.1, Served: 2_000, RowHitRate: 0.5},
		},
		Snapshots: []sim.IntervalSnapshot{
			{Cycle: 50_000, IntervalCycles: 50_000, NumSMs: 16, NumMCs: 6, Apps: apps},
			{Cycle: 100_000, IntervalCycles: 50_000, NumSMs: 16, NumMCs: 6, Apps: apps},
		},
		BusCycles: 600_000,
	}
}

// TestJobResponsesCompact pins the wire form of the job API: one compact
// JSON value and a newline, exactly what json.Marshal gives for the view,
// decoding to the cached result.
func TestJobResponsesCompact(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles, Seed: 3}
	want := hitResult()
	seedCache(t, s, req, want)
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	posted, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v JobView
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(posted, &v) != nil {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, posted)
	}
	if bytes.IndexByte(posted, '\n') != len(posted)-1 {
		t.Fatalf("submit body is not one compact line: %q", posted)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "?wait_ms=60000")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	view, _ := s.View(v.ID)
	compact, _ := json.Marshal(view)
	if !bytes.Equal(got, append(compact, '\n')) {
		t.Fatalf("GET body is not json.Marshal(view)+\"\\n\":\n got %s\nwant %s", got, compact)
	}
	var back JobView
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back.Status != StatusDone || !back.CacheHit || back.Result == nil || !reflect.DeepEqual(back.Result.Sim, want) {
		t.Fatalf("decoded view: status %s cache_hit %v result %+v", back.Status, back.CacheHit, back.Result)
	}
}

// TestSubmitRejectsTrailingData: a submission body is exactly one JSON
// object; trailing whitespace is the only thing allowed after it.
func TestSubmitRejectsTrailingData(t *testing.T) {
	s := newIdleServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	const job = `{"kernels":["SB"],"cycles":20000}`
	cases := []struct {
		name, body string
		want       int
	}{
		{"trailing-object", job + ` {"kernels":["SD"]}`, http.StatusBadRequest},
		{"trailing-garbage", job + ` junk`, http.StatusBadRequest},
		{"trailing-close-brace", job + `}`, http.StatusBadRequest},
		{"trailing-whitespace-only", job + " \n\t\r\n", http.StatusAccepted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, data)
			}
			if tc.want == http.StatusBadRequest && !strings.Contains(string(data), "trailing data") {
				t.Fatalf("error body %s does not name the trailing data", data)
			}
		})
	}
	if n := len(s.Views()); n != 1 {
		t.Fatalf("%d jobs recorded, want only the whitespace-only submission", n)
	}
}

// TestEvictionBoundedOrder drives eviction far past MaxJobs with one queued
// record holding the front: every eviction removes the oldest terminal
// record behind it, the held job survives, Views keeps submission order,
// and the order slice's capacity stays bounded while its front is dropped.
func TestEvictionBoundedOrder(t *testing.T) {
	const maxJobs = 8
	s := newIdleServer(t, Options{MaxJobs: maxJobs, QueueDepth: 16 * maxJobs, ShedHighWater: -1})
	seed := uint64(0)
	submit := func() string {
		t.Helper()
		seed++
		job, err := s.submit(JobRequest{Kernels: []string{"SB"}, Cycles: testCycles, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return job.ID
	}
	held := submit()
	var ids []string
	for k := 0; k < 10*maxJobs; k++ {
		id := submit()
		if found, canceled := s.cancelJob(id); !found || !canceled {
			t.Fatalf("cancel %s: found %v canceled %v", id, found, canceled)
		}
		ids = append(ids, id)

		want := []string{held}
		want = append(want, ids[max(0, len(ids)-(maxJobs-1)):]...)
		var got []string
		for _, v := range s.Views() {
			got = append(got, v.ID)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("after %d submissions: views %v, want %v", k+2, got, want)
		}
		s.mu.Lock()
		c := cap(s.jobOrder)
		s.mu.Unlock()
		if c > 4*maxJobs {
			t.Fatalf("after %d submissions: cap(jobOrder) = %d > %d", k+2, c, 4*maxJobs)
		}
	}
	if v, ok := s.View(held); !ok || v.Status != StatusQueued {
		t.Fatalf("held job %s: %+v (found %v), want queued", held, v, ok)
	}
}

// BenchmarkJobHitRoundTrip is the job API's cache-hit round trip over
// loopback HTTP: submit a request whose result is cached, then long-poll it.
// Client-side costs are included in the per-op numbers.
func BenchmarkJobHitRoundTrip(b *testing.B) {
	s, ts := newTestServer(b, Options{})
	req := JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles, Seed: 3}
	seedCache(b, s, req, hitResult())
	body, _ := json.Marshal(req)
	cl := ts.Client()
	var buf bytes.Buffer
	roundTrip := func(resp *http.Response, err error, want int, v *JobView) {
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != want {
			b.Fatalf("status %d (%v): %s", resp.StatusCode, err, buf.Bytes())
		}
		*v = JobView{}
		if err := json.Unmarshal(buf.Bytes(), v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var v JobView
		resp, err := cl.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		roundTrip(resp, err, http.StatusAccepted, &v)
		resp, err = cl.Get(ts.URL + "/v1/jobs/" + v.ID + "?wait_ms=60000")
		roundTrip(resp, err, http.StatusOK, &v)
		if v.Status != StatusDone || !v.CacheHit {
			b.Fatalf("job %s: status %s cache_hit %v", v.ID, v.Status, v.CacheHit)
		}
	}
}
