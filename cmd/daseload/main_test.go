package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dasesim"
	"dasesim/internal/server"
)

func TestPercentile(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1) // 1..100
	}
	cases := []struct {
		p    float64
		want int64
	}{
		{50, 50},
		{95, 95},
		{99, 99},
		{100, 100},
		{0, 1},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile([7], 99) = %d, want 7", got)
	}
}

func TestSummarize(t *testing.T) {
	r := runResult{
		lats:    []int64{3000, 1000, 2000, 4000},
		elapsed: 2 * time.Second,
	}
	s, ok := summarize(r, 1)
	if !ok {
		t.Fatal("summarize reported no data")
	}
	if s.n != 4 || s.qps != 2 || s.eps != 2 || s.mean != 2500 {
		t.Errorf("summarize = %+v", s)
	}
	if s.p50 != 2000 || s.p99 != 4000 {
		t.Errorf("percentiles = p50 %d p99 %d", s.p50, s.p99)
	}
	if s, _ := summarize(r, 8); s.eps != 16 {
		t.Errorf("batched eps = %v, want 16", s.eps)
	}
	if _, ok := summarize(runResult{elapsed: time.Second}, 1); ok {
		t.Error("summarize of empty run must report !ok")
	}
}

func TestBatchCorpus(t *testing.T) {
	corpus := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{"c":3}`)}
	got := batchCorpus(corpus, 2)
	if len(got) != 2 {
		t.Fatalf("got %d batches, want 2", len(got))
	}
	if string(got[0]) != `[{"a":1},{"b":2}]` {
		t.Errorf("batch 0 = %s", got[0])
	}
	// The tail wraps around to fill the final batch.
	if string(got[1]) != `[{"c":3},{"a":1}]` {
		t.Errorf("batch 1 = %s", got[1])
	}
}

// TestBenchLineParseable pins the output contract: tab-separated fields in
// `go test -bench` order — name with the connection count as its -N suffix,
// request count, mean latency as ns/op — then one "value unit" field per
// custom metric, failures last in ascending status order.
func TestBenchLineParseable(t *testing.T) {
	line := benchLine("ServeClosed", 8, stats{
		n: 250000, qps: 50123.4, eps: 50123.4, mean: 8123, p50: 7100, p95: 11000, p99: 20000,
	}, runResult{statusErr: map[int]int64{429: 12, 503: 3}, transport: 2})
	fields := strings.Split(line, "\t")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	want := []string{
		"BenchmarkServeClosed-8", "250000", "8123 ns/op",
		"50123.4 qps", "50123.4 eps", "7100 p50-ns", "11000 p95-ns", "20000 p99-ns",
		"12 err-429", "3 err-503", "2 err-transport",
	}
	if !slices.Equal(fields, want) {
		t.Fatalf("bench line fields =\n%q\nwant\n%q", fields, want)
	}
	clean := benchLine("ServeOpen", 2, stats{n: 1}, runResult{})
	if strings.Contains(clean, "err-") {
		t.Errorf("clean run reports failures: %q", clean)
	}
}

func TestLoadCorpus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.ndjson")
	content := "{\"a\":1}\n\n  {\"b\":2}  \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	corpus, err := loadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 2 || string(corpus[0]) != `{"a":1}` || string(corpus[1]) != `{"b":2}` {
		t.Errorf("corpus = %q", corpus)
	}
	empty := filepath.Join(t.TempDir(), "empty.ndjson")
	if err := os.WriteFile(empty, []byte("\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCorpus(empty); err == nil {
		t.Error("empty corpus must be an error")
	}
	if _, err := loadCorpus(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file must be an error")
	}
}

// newLoadTestServer serves the real estimation API in-process so the loops
// can be exercised end to end without a network.
func newLoadTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Options{
		Cfg:    dasesim.DefaultConfig(),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func testCorpus(t *testing.T) [][]byte {
	t.Helper()
	corpus, err := synthesizeCorpus(60_000)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestClosedLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation and a timed load loop; skipped with -short")
	}
	ts := newLoadTestServer(t)
	corpus := testCorpus(t)
	res := closedLoop(ts.Client(), ts.URL+"/v1/estimate", corpus, 2, 200*time.Millisecond)
	if n := res.errs(); n != 0 {
		t.Fatalf("%d requests failed", n)
	}
	s, ok := summarize(res, 1)
	if !ok || s.n == 0 {
		t.Fatal("closed loop completed no requests")
	}
	if s.p50 <= 0 || s.p99 < s.p50 {
		t.Errorf("implausible percentiles: %+v", s)
	}
}

func TestOpenLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation and a timed load loop; skipped with -short")
	}
	ts := newLoadTestServer(t)
	corpus := testCorpus(t)
	res := openLoop(ts.Client(), ts.URL+"/v1/estimate", corpus, 500, 16, 200*time.Millisecond)
	if n := res.errs(); n != 0 {
		t.Fatalf("%d requests failed", n)
	}
	s, ok := summarize(res, 1)
	if !ok {
		t.Fatal("open loop completed no requests")
	}
	// 500 qps over 200ms schedules ~100 requests; allow generous slop for
	// slow CI machines, but the loop must have sent a real fraction.
	if s.n < 20 {
		t.Errorf("open loop completed only %d requests", s.n)
	}
}

func TestWaitReady(t *testing.T) {
	ts := newLoadTestServer(t)
	if err := waitReady(ts.Client(), ts.URL+"/healthz", time.Second); err != nil {
		t.Errorf("healthy server reported not ready: %v", err)
	}
	if err := waitReady(http.DefaultClient, "http://127.0.0.1:1/healthz", 100*time.Millisecond); err == nil {
		t.Error("unreachable server must time out")
	}
}

// TestErrorClassification checks failures land in the right bucket: non-2xx
// responses counted per status code, connection failures counted as
// transport errors, and successes in neither.
func TestErrorClassification(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/shed", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	var res runResult
	post := func(url string, times int) {
		for i := 0; i < times; i++ {
			if status, err := postOnce(ts.Client(), url, []byte("{}")); err != nil {
				res.countErr(status)
			}
		}
	}
	post(ts.URL+"/ok", 2)
	post(ts.URL+"/shed", 3)
	post(ts.URL+"/drain", 1)
	post("http://127.0.0.1:1/unreachable", 2)

	if res.statusErr[429] != 3 || res.statusErr[503] != 1 {
		t.Errorf("statusErr = %v, want 429:3 503:1", res.statusErr)
	}
	if res.transport != 2 {
		t.Errorf("transport = %d, want 2", res.transport)
	}
	if got := res.errs(); got != 6 {
		t.Errorf("errs() = %d, want 6", got)
	}

	// merge must preserve the breakdown across worker results.
	var merged runResult
	merged.merge(res)
	merged.merge(runResult{statusErr: map[int]int64{429: 1}, transport: 1})
	if merged.statusErr[429] != 4 || merged.transport != 3 || merged.errs() != 8 {
		t.Errorf("merged = %v/%d (total %d), want 429:4 transport:3 total 8",
			merged.statusErr, merged.transport, merged.errs())
	}
}
