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
)

// testCycles keeps the suite fast: one partial interval per run.
const testCycles = 20_000

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
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
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, MaxCycles: 2_000_000_000})

	running, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB"}, Cycles: 1_000_000_000})
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
	_, ts := newTestServer(t, Options{MaxCycles: 2_000_000_000})
	v, _ := postJob(t, ts, JobRequest{Kernels: []string{"SB"}, Cycles: 1_000_000_000, TimeoutMS: 50})
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
		{Kernels: []string{"SB", "SD"}, Mode: "alone"},   // alone arity
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

// TestPanicRecovery proves a panicking job fails the job, not the daemon.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	// A plan with no profiles in alone mode panics in runSim — the kind of
	// internal bug panic recovery exists for.
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
// journal or a worker pool: the server is never started, so every submission
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
