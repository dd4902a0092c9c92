package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
)

// testCycles keeps the suite fast: one partial interval per run.
const testCycles = 20_000

func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.JobTimeout == 0 {
		opts.JobTimeout = time.Minute
	}
	if opts.DefaultCycles == 0 {
		opts.DefaultCycles = testCycles
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (JobView, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &v)
	return v, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string, waitMS int) JobView {
	t.Helper()
	url := fmt.Sprintf("%s/v1/jobs/%s", ts.URL, id)
	if waitMS > 0 {
		url += "?wait_ms=" + strconv.Itoa(waitMS)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id, 5000)
		if v.Status.terminal() {
			return v
		}
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// TestJobMatchesDirectSim proves a job submitted over HTTP returns a result
// byte-identical (as JSON) to calling sim.RunShared directly.
func TestJobMatchesDirectSim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := newTestServer(t, Options{})
	v, resp := postJob(t, ts, JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles, Seed: 7})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	v = waitDone(t, ts, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", v.ID, v.Status, v.Error)
	}

	cfg := config.Default()
	sb, _ := kernels.ByAbbr("SB")
	sd, _ := kernels.ByAbbr("SD")
	direct, err := sim.RunShared(cfg, []kernels.Profile{sb, sd}, sim.EvenAllocation(cfg.NumSMs, 2), testCycles, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	got, _ := json.Marshal(v.Result.Sim)
	if !bytes.Equal(want, got) {
		t.Fatalf("HTTP result diverged from direct simulation:\n got %s\nwant %s", got, want)
	}
}

// TestCacheHitOnRepeat proves the second identical submission is served from
// the result cache and the counters record it.
func TestCacheHitOnRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := newTestServer(t, Options{})
	req := JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles}

	v1, _ := postJob(t, ts, req)
	v1 = waitDone(t, ts, v1.ID)
	if v1.Status != StatusDone || v1.CacheHit {
		t.Fatalf("first job: status=%s cache_hit=%t (%s)", v1.Status, v1.CacheHit, v1.Error)
	}

	v2, _ := postJob(t, ts, req)
	v2 = waitDone(t, ts, v2.ID)
	if v2.Status != StatusDone || !v2.CacheHit {
		t.Fatalf("second job: status=%s cache_hit=%t (%s)", v2.Status, v2.CacheHit, v2.Error)
	}

	r1, _ := json.Marshal(v1.Result.Sim)
	r2, _ := json.Marshal(v2.Result.Sim)
	if !bytes.Equal(r1, r2) {
		t.Fatal("cached result differs from the original")
	}

	metrics := fetchMetrics(t, ts)
	if hits := metricValue(t, metrics, "dased_cache_hits_total"); hits < 1 {
		t.Fatalf("cache_hits_total = %v", hits)
	}
	if misses := metricValue(t, metrics, "dased_cache_misses_total"); misses < 1 {
		t.Fatalf("cache_misses_total = %v", misses)
	}
	if n := metricValue(t, metrics, "dased_jobs_completed_total"); n != 2 {
		t.Fatalf("jobs_completed_total = %v", n)
	}
}

// TestConcurrentSubmissions drives 8 concurrent submissions through the
// worker pool and checks deterministic, cache-consistent results.
func TestConcurrentSubmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 16})
	kernelsBySlot := [][]string{
		{"SB", "SD"}, {"VA", "CT"}, {"SB", "SD"}, {"QR", "BG"},
		{"VA", "CT"}, {"QR", "BG"}, {"SB", "SD"}, {"VA", "CT"},
	}
	ids := make([]string, len(kernelsBySlot))
	var wg sync.WaitGroup
	for i, ks := range kernelsBySlot {
		wg.Add(1)
		go func(i int, ks []string) {
			defer wg.Done()
			v, resp := postJob(t, ts, JobRequest{Kernels: ks, Cycles: testCycles})
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("slot %d: submit status %d", i, resp.StatusCode)
				return
			}
			ids[i] = v.ID
		}(i, ks)
	}
	wg.Wait()
	results := make([]string, len(ids))
	for i, id := range ids {
		if id == "" {
			t.Fatal("missing job id")
		}
		v := waitDone(t, ts, id)
		if v.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
		}
		data, _ := json.Marshal(v.Result.Sim)
		results[i] = string(data)
	}
	// Identical submissions must produce identical results regardless of
	// worker interleaving or cache path.
	for i, ks := range kernelsBySlot {
		for j := i + 1; j < len(kernelsBySlot); j++ {
			if strings.Join(ks, "+") == strings.Join(kernelsBySlot[j], "+") && results[i] != results[j] {
				t.Fatalf("slots %d and %d diverged for %v", i, j, ks)
			}
		}
	}
}

// TestQueueFull429AndCancel exercises backpressure and both cancel paths
// with a single worker held busy by a long-running job.
func TestQueueFull429AndCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, MaxCycles: 200_000_000})

	running, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB"}, Cycles: 200_000_000})
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, running.ID, 0).Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	queued, resp := postJob(t, ts, JobRequest{Kernels: []string{"SD"}, Cycles: testCycles})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d", resp.StatusCode)
	}
	_, resp = postJob(t, ts, JobRequest{Kernels: []string{"VA"}, Cycles: testCycles})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d, want 429", resp.StatusCode)
	}
	if n := metricValue(t, fetchMetrics(t, ts), "dased_jobs_rejected_total"); n != 1 {
		t.Fatalf("jobs_rejected_total = %v", n)
	}

	// Cancel the queued job: it must go terminal without ever running.
	cancelJob(t, ts, queued.ID, http.StatusOK)
	if v := waitDone(t, ts, queued.ID); v.Status != StatusCanceled {
		t.Fatalf("queued job after cancel: %s", v.Status)
	}

	// Cancel the running job: the context aborts the simulation.
	cancelJob(t, ts, running.ID, http.StatusOK)
	v := waitDone(t, ts, running.ID)
	if v.Status != StatusCanceled {
		t.Fatalf("running job after cancel: %s (%s)", v.Status, v.Error)
	}
	// Cancelling a finished job conflicts.
	cancelJob(t, ts, running.ID, http.StatusConflict)
}

// TestJobTimeout proves the per-job deadline fails the job, not the server.
func TestJobTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := newTestServer(t, Options{MaxCycles: 200_000_000})
	v, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB"}, Cycles: 200_000_000, TimeoutMS: 50})
	v = waitDone(t, ts, v.ID)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "timeout") {
		t.Fatalf("status=%s error=%q", v.Status, v.Error)
	}
	if n := metricValue(t, fetchMetrics(t, ts), "dased_jobs_failed_total"); n != 1 {
		t.Fatalf("jobs_failed_total = %v", n)
	}
}

// TestSlowdownJob checks the slowdown augmentation against a direct
// computation through the same public simulation API.
func TestSlowdownJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	_, ts := newTestServer(t, Options{})
	v, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles, Slowdowns: true})
	v = waitDone(t, ts, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("job: %s (%s)", v.Status, v.Error)
	}
	if len(v.Result.Slowdowns) != 2 || len(v.Result.AloneIPC) != 2 {
		t.Fatalf("slowdowns missing: %+v", v.Result)
	}
	for i, s := range v.Result.Slowdowns {
		if s < 1.0 {
			t.Errorf("app %d slowdown %v < 1", i, s)
		}
	}
	if v.Result.Unfairness < 1 || v.Result.HarmonicSpeedup <= 0 {
		t.Fatalf("metrics: unfairness=%v hspeedup=%v", v.Result.Unfairness, v.Result.HarmonicSpeedup)
	}
}

// TestSimCyclesCountsColdRuns: two cold slowdown jobs that share both alone
// baselines, submitted together, add their main runs' cycles plus the two
// alone runs' cycles once to dased_sim_cycles_total; resubmitting them adds
// 0. It runs under -short, so the race detector sees concurrent jobs
// resolving one alone baseline.
func TestSimCyclesCountsColdRuns(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	reqs := []JobRequest{
		{Kernels: []string{"SB", "SD"}, Cycles: testCycles, Slowdowns: true},
		{Kernels: []string{"SD", "SB"}, Cycles: testCycles, Slowdowns: true},
	}
	submit := func() (cycles uint64, hits int) {
		ids := make([]string, len(reqs))
		for i, req := range reqs {
			v, _ := postJob(t, ts, req)
			ids[i] = v.ID
		}
		for _, id := range ids {
			v := waitDone(t, ts, id)
			if v.Status != StatusDone {
				t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
			}
			cycles += v.Result.Sim.Cycles
			if v.CacheHit {
				hits++
			}
		}
		return cycles, hits
	}
	mainCycles, hits := submit()
	if hits != 0 {
		t.Fatalf("%d cold jobs were cache hits", hits)
	}
	want := float64(mainCycles + 2*testCycles) // both mains, SB and SD alone
	if got := metricValue(t, fetchMetrics(t, ts), "dased_sim_cycles_total"); got != want {
		t.Fatalf("dased_sim_cycles_total = %v after the cold jobs, want %v", got, want)
	}
	if _, hits := submit(); hits != len(reqs) {
		t.Fatalf("%d of %d resubmitted jobs were cache hits", hits, len(reqs))
	}
	if got := metricValue(t, fetchMetrics(t, ts), "dased_sim_cycles_total"); got != want {
		t.Fatalf("dased_sim_cycles_total = %v after resubmitting, want %v", got, want)
	}
}

// TestValidationErrors exercises the 400 paths.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []JobRequest{
		{},                        // no kernels
		{Kernels: []string{"XX"}}, // unknown kernel
		{Kernels: []string{"SB"}, Alloc: []int{99}},      // too many SMs
		{Kernels: []string{"SB", "SD"}, Alloc: []int{8}}, // alloc arity
		{Kernels: []string{"SB"}, Cycles: 1 << 62},       // over budget
		{Kernels: []string{"SB"}, Mode: "weird"},         // bad mode
		{Kernels: []string{"SB"}, Policy: "weird"},       // bad policy
		{Kernels: []string{"SB"}, Policy: "perf"},        // retired policy
		{Kernels: []string{"SB", "SD"}, Mode: "alone"},   // alone arity
		// A kernel without SMs has an infinite slowdown, which JSON cannot
		// encode: accepted, it made the job and the job list unreadable.
		{Kernels: []string{"SB", "SD"}, Alloc: []int{16, 0}, Cycles: testCycles, Slowdowns: true},
	}
	for i, req := range cases {
		_, resp := postJob(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if n := metricValue(t, fetchMetrics(t, ts), "dased_jobs_submitted_total"); n != 0 {
		t.Fatalf("invalid submissions were counted: %v", n)
	}
}

// TestNewBoundsResultIntervals: New accepts a MaxCycles that spans exactly
// maxIntervals intervals and refuses one cycle more, naming both numbers;
// the defaults (400 intervals) start.
func TestNewBoundsResultIntervals(t *testing.T) {
	if _, err := New(Options{}); err != nil {
		t.Fatalf("New with defaults: %v", err)
	}
	cfg := config.Default()
	cfg.IntervalCycles = 1_000
	at := uint64(maxIntervals) * cfg.IntervalCycles
	if _, err := New(Options{Cfg: cfg, MaxCycles: at}); err != nil {
		t.Fatalf("MaxCycles %d (%d intervals): %v", at, maxIntervals, err)
	}
	_, err := New(Options{Cfg: cfg, MaxCycles: at + 1})
	if err == nil || !strings.Contains(err.Error(), "4097 intervals") || !strings.Contains(err.Error(), "the 4096") {
		t.Fatalf("MaxCycles %d: err = %v, want a refusal naming 4097 and 4096 intervals", at+1, err)
	}
}

// TestPanicRecovery proves a panicking job fails the job, not the daemon.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	// A panicking simulation stands in for the kind of internal bug panic
	// recovery exists for. The worker reads s.simulate only after it
	// receives the job below.
	s.simulate = func(context.Context, plan, *telemetry.Tracer) (*sim.Result, error) {
		panic("internal bug")
	}
	job := &Job{
		ID:     "job-panic",
		Status: StatusQueued,
		plan:   plan{mode: "alone", timeout: time.Minute},
		done:   make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.jobOrder = append(s.jobOrder, job.ID)
	s.mu.Unlock()
	s.queue <- job

	v := waitDone(t, ts, job.ID)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "panic") {
		t.Fatalf("status=%s error=%q", v.Status, v.Error)
	}
	// The daemon survives and still serves.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}
}

// TestHealthzAndKernels covers the read-only endpoints.
func TestHealthzAndKernels(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	resp, err = http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	var kr struct {
		Kernels []struct {
			Abbr string `json:"abbr"`
		} `json:"kernels"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&kr)
	resp.Body.Close()
	if len(kr.Kernels) != len(kernels.All()) {
		t.Fatalf("kernels: got %d, want %d", len(kr.Kernels), len(kernels.All()))
	}
}

// TestReadyzLifecycle walks the readiness state machine: not ready before
// Start, ready after, not ready again once draining.
func TestReadyzLifecycle(t *testing.T) {
	s := newIdleServer(t, Options{JobTimeout: time.Minute, DefaultCycles: testCycles})
	if err := s.Ready(); err == nil || !strings.Contains(err.Error(), "not started") {
		t.Fatalf("Ready() before Start = %v, want not started", err)
	}
	s.Start()
	if err := s.Ready(); err != nil {
		t.Fatalf("Ready() after Start: %v", err)
	}
	ctx, cancel := testCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Ready(); err == nil || err.Error() != "draining" {
		t.Fatalf("Ready() after Shutdown = %v, want draining", err)
	}
}

// TestReadyzEndpoint checks the HTTP surface: /readyz mirrors Ready() with
// 200/503 and a JSON reason, while /healthz answers 200 whether or not the
// daemon is ready (liveness and readiness are different questions).
func TestReadyzEndpoint(t *testing.T) {
	s := newIdleServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable || body["status"] != "unavailable" {
		t.Fatalf("/readyz before Start = %d %v, want 503 unavailable", code, body)
	}
	if reason, _ := body["reason"].(string); !strings.Contains(reason, "not started") {
		t.Fatalf("/readyz reason = %q", reason)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before Start = %d, want 200", code)
	}
	s.Start()
	if code, body := get("/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("/readyz = %d %v, want 200 ready", code, body)
	}
}

// TestSubmitStatusMapping pins the error→HTTP-status contract of
// POST /v1/jobs.
func TestSubmitStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusAccepted},
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrShed, http.StatusTooManyRequests},
		{ErrDraining, http.StatusServiceUnavailable},
		{fmt.Errorf("unknown kernel %q", "NOPE"), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := SubmitStatus(c.err); got != c.want {
			t.Errorf("SubmitStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestViewsAndQueueLen covers the read API on a server whose workers never
// start: empty at first, then one queued job in the queue, the list and the
// single view.
func TestViewsAndQueueLen(t *testing.T) {
	s := newIdleServer(t, Options{})
	if n := len(s.queue); n != 0 {
		t.Fatalf("queue length %d on an idle server", n)
	}
	if got := s.Views(); len(got) != 0 {
		t.Fatalf("Views = %v on an empty server", got)
	}
	if _, ok := s.View("job-99"); ok {
		t.Fatal("View found a job that never existed")
	}
	v, err := s.Submit(JobRequest{Kernels: []string{"SB"}, Cycles: testCycles})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.queue); n != 1 {
		t.Fatalf("queue length %d after one submission, want 1", n)
	}
	if got := s.Views(); len(got) != 1 || got[0].ID != v.ID || got[0].Status != StatusQueued {
		t.Fatalf("Views = %+v, want the one queued job", got)
	}
	if got, ok := s.View(v.ID); !ok || got.Status != StatusQueued {
		t.Fatalf("View(%s) = %+v, %v", v.ID, got, ok)
	}
}

// TestSubmitListCancelShort drives the programmatic Submit path plus the list
// and cancel endpoints with one cheap job, then shuts the server down.
func TestSubmitListCancelShort(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, DefaultCycles: 2_000})
	v, err := s.Submit(JobRequest{Kernels: []string{"SB"}, Cycles: 2_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobRequest{Kernels: []string{"NOPE"}}); err == nil {
		t.Fatal("invalid kernel accepted")
	}
	awaitTerminal(t, s, v.ID)
	if got := s.Views(); len(got) != 1 || got[0].ID != v.ID {
		t.Fatalf("Views = %+v, want the one submitted job", got)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed.Jobs) != 1 || listed.Jobs[0].ID != v.ID {
		t.Fatalf("GET /v1/jobs = %+v", listed.Jobs)
	}

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("nope"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d, want 404", code)
	}
	if code := del(v.ID); code != http.StatusConflict {
		t.Fatalf("DELETE finished job = %d, want 409", code)
	}

	ctx, cancel := testCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Ready(); err == nil {
		t.Fatal("Ready() nil after Shutdown")
	}
}

// TestShutdownDrains proves graceful shutdown finishes queued work and
// rejects new submissions with 503.
func TestShutdownDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s, ts := newTestServer(t, Options{})
	v, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB", "SD"}, Cycles: testCycles})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := getJob(t, ts, v.ID, 0); got.Status != StatusDone {
		t.Fatalf("drained job: %s (%s)", got.Status, got.Error)
	}
	_, resp := postJob(t, ts, JobRequest{Kernels: []string{"SB"}, Cycles: testCycles})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

func cancelJob(t *testing.T, ts *httptest.Server, id string, wantStatus int) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("DELETE %s: status %d, want %d", id, resp.StatusCode, wantStatus)
	}
}

func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

// metricValue extracts one metric's value from Prometheus text output.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s missing from:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMaxJobsEvictsOldestTerminal pins the in-memory record bound without a
// worker pool: the server is never started, so every submission
// stays queued until the test cancels it and nothing simulates. Beyond
// MaxJobs the oldest terminal record goes first, queued records are never
// evicted, and Views keeps submission order.
func TestMaxJobsEvictsOldestTerminal(t *testing.T) {
	s, err := New(Options{MaxJobs: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
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
	cancel := func(id string) {
		t.Helper()
		if found, canceled := s.cancelJob(id); !found || !canceled {
			t.Fatalf("cancel %s: found %v canceled %v", id, found, canceled)
		}
	}
	expect := func(step string, want ...string) {
		t.Helper()
		var got []string
		for _, v := range s.Views() {
			got = append(got, v.ID)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: views %v, want %v", step, got, want)
		}
	}

	a, b := submit(), submit()
	cancel(a)
	c := submit()
	expect("oldest terminal evicted", b, c)

	cancel(c)
	d := submit()
	expect("queued record skipped, next terminal evicted", b, d)

	e := submit()
	expect("all live: bound exceeded rather than drop a queued job", b, d, e)

	cancel(d)
	f := submit()
	expect("eviction stops once only live records remain", b, e, f)
}
