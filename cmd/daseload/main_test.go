package main

import (
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
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
	line := benchLine("ServeOpen", 8, stats{
		n: 250000, qps: 50123.4, eps: 50123.4, mean: 8123, p50: 7100, p95: 11000, p99: 20000,
	}, runResult{statusErr: map[int]int64{429: 12, 503: 3}, transport: 2})
	fields := strings.Split(line, "\t")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	want := []string{
		"BenchmarkServeOpen-8", "250000", "8123 ns/op",
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
}

// TestRunFlagErrors: every bad flag is refused before the corpus simulation
// starts, so these return at once.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"qps-missing", nil, "-qps must be > 0"},
		{"qps-zero", []string{"-qps", "0"}, "-qps must be > 0"},
		{"batch-zero", []string{"-qps", "10", "-batch", "0"}, "-batch must be >= 1"},
		{"conns-zero", []string{"-qps", "10", "-conns", "0"}, "-conns must be >= 1"},
		{"duration-zero", []string{"-qps", "10", "-duration", "0s"}, "-duration must be > 0"},
		{"positional", []string{"-qps", "10", "extra"}, "unexpected arguments"},
		{"unknown-flag", []string{"-bogus"}, "flag provided but not defined: -bogus"},
		{"deleted-mode", []string{"-mode", "closed", "-qps", "10"}, "flag provided but not defined: -mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			err := run(tc.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
			if stdout.Len() != 0 || strings.Contains(stderr.String(), "synthesizing") {
				t.Errorf("flag error reached the run: stdout %q stderr %q", stdout.String(), stderr.String())
			}
		})
	}
}

// TestRunEndToEnd drives run against an in-process daemon and parses the
// bench line it prints.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation and a timed load loop; skipped with -short")
	}
	ts := newLoadTestServer(t)
	var stdout, stderr strings.Builder
	args := []string{"-addr", ts.URL + "/", "-qps", "500", "-conns", "4", "-duration", "200ms", "-batch", "2"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	fields := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\t")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	if len(fields) != 8 || fields[0] != "BenchmarkServeOpen-4" {
		t.Fatalf("bench line = %q, want 8 fields named BenchmarkServeOpen-4", stdout.String())
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 20 {
		t.Errorf("request count %q: 500 qps for 200ms should complete about 100", fields[1])
	}
	units := []string{"ns/op", "qps", "eps", "p50-ns", "p95-ns", "p99-ns"}
	vals := map[string]float64{}
	for i, unit := range units {
		v, u, ok := strings.Cut(fields[2+i], " ")
		f, err := strconv.ParseFloat(v, 64)
		if !ok || u != unit || err != nil || f <= 0 {
			t.Fatalf("field %d = %q, want a positive value in %s", 2+i, fields[2+i], unit)
		}
		vals[unit] = f
	}
	if math.Abs(vals["eps"]-2*vals["qps"]) > 0.2 { // both rounded to one decimal
		t.Errorf("eps %v, want 2 x qps %v with -batch 2", vals["eps"], vals["qps"])
	}
	if vals["p99-ns"] < vals["p50-ns"] {
		t.Errorf("p99 %v below p50 %v", vals["p99-ns"], vals["p50-ns"])
	}
}
