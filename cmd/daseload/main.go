// Command daseload is an open-loop load generator for dased's online
// estimation API (POST /v1/estimate). It drives a running daemon with
// per-interval counter snapshots and reports achieved throughput and latency
// percentiles as one `go test -bench`-style line.
//
// Requests are scheduled at a fixed -qps independent of completions, and
// latency is measured from the scheduled send time, so queueing delay under
// overload is visible rather than hidden by coordinated omission. The
// repository benchmark (`go run ./bench`, workloads est-single and
// est-batch16) measures the same endpoint closed-loop; the open loop is what
// daseload adds.
//
// The request corpus is synthesized by running a short two-app shared
// simulation and converting its recorded interval snapshots, so the load is
// shaped like real counter traffic, not toy constants.
//
// Usage:
//
//	daseload -addr http://localhost:8844 -qps 50000 -conns 256 -duration 10s
//	daseload -qps 2000 -batch 16
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/estimate"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "daseload: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, validates every flag before the corpus simulation starts,
// drives the open loop and prints the bench line on stdout; progress and the
// failure breakdown go to stderr. A run with any failed request is an error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("daseload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8844", "base URL of the dased instance")
		conns    = fs.Int("conns", 8, "max in-flight requests")
		qps      = fs.Float64("qps", 0, "target request rate (required, > 0)")
		duration = fs.Duration("duration", 5*time.Second, "measured run length")
		batch    = fs.Int("batch", 1, "snapshots per request: group this many corpus entries into one array body")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *qps <= 0:
		return errors.New("-qps must be > 0")
	case *conns < 1:
		return errors.New("-conns must be >= 1")
	case *duration <= 0:
		return errors.New("-duration must be > 0")
	case *batch < 1:
		return errors.New("-batch must be >= 1")
	}

	fmt.Fprintln(stderr, "daseload: synthesizing corpus from a two-app shared simulation")
	corpus, err := synthesizeCorpus(300_000)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	fmt.Fprintf(stderr, "daseload: corpus of %d request bodies\n", len(corpus))
	if *batch > 1 {
		corpus = batchCorpus(corpus, *batch)
	}

	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conns,
		MaxIdleConnsPerHost: *conns,
	}}
	defer client.CloseIdleConnections()
	if err := waitReady(client, base+"/healthz", 5*time.Second); err != nil {
		return err
	}

	res := openLoop(client, base+"/v1/estimate", corpus, *qps, *conns, *duration)
	if n := res.errs(); n > 0 {
		fmt.Fprintf(stderr, "daseload: %d requests failed\n", n)
		for _, code := range sortedCodes(res.statusErr) {
			fmt.Fprintf(stderr, "daseload:   HTTP %d: %d\n", code, res.statusErr[code])
		}
		if res.transport > 0 {
			fmt.Fprintf(stderr, "daseload:   transport (no response): %d\n", res.transport)
		}
	}
	s, ok := summarize(res, *batch)
	if !ok {
		return errors.New("no successful requests")
	}
	fmt.Fprintln(stdout, benchLine("ServeOpen", *conns, s, res))
	fmt.Fprintf(stderr, "daseload: %d requests in %v: %.0f qps (%.0f estimates/s), p50 %v p95 %v p99 %v\n",
		s.n, res.elapsed.Round(time.Millisecond), s.qps, s.eps,
		time.Duration(s.p50), time.Duration(s.p95), time.Duration(s.p99))
	if n := res.errs(); n > 0 {
		return fmt.Errorf("%d requests failed", n)
	}
	return nil
}

// sortedCodes returns the map's status codes in ascending order so the
// failure report is stable run to run.
func sortedCodes(m map[int]int64) []int {
	codes := make([]int, 0, len(m))
	for c := range m {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	return codes
}

// runResult is the raw outcome of one loop: per-request latencies in
// nanoseconds (unsorted), failures broken out by kind, and wall time spent.
// HTTP failures are counted per status code — a 429 (shed load) and a 500
// (broken server) are very different findings — and transport errors
// (refused, reset, timeout) separately from any HTTP answer at all.
type runResult struct {
	lats      []int64
	statusErr map[int]int64 // non-2xx responses by status code
	transport int64         // requests that never got an HTTP response
	elapsed   time.Duration
}

// errs is the total failed-request count.
func (r *runResult) errs() int64 {
	n := r.transport
	for _, c := range r.statusErr {
		n += c
	}
	return n
}

// countErr files one failure; a zero status means no response arrived.
func (r *runResult) countErr(status int) {
	if status == 0 {
		r.transport++
		return
	}
	if r.statusErr == nil {
		r.statusErr = map[int]int64{}
	}
	r.statusErr[status]++
}

// stats condenses a runResult for reporting. qps counts HTTP requests; eps
// counts estimates (snapshots), which differ when bodies are batched.
type stats struct {
	n             int
	qps           float64
	eps           float64
	mean          float64
	p50, p95, p99 int64
}

// openLoop schedules requests at a fixed rate regardless of completions,
// capping in-flight requests at maxInFlight. Latency is measured from each
// request's scheduled send time, so time spent waiting for an in-flight
// slot (queueing under overload) counts against the service.
func openLoop(c *http.Client, url string, corpus [][]byte, qps float64, maxInFlight int, d time.Duration) runResult {
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	sem := make(chan struct{}, maxInFlight)
	var mu sync.Mutex
	var res runResult
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; ; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if sched.After(deadline) {
			break
		}
		if sleep := time.Until(sched); sleep > 0 {
			time.Sleep(sleep)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(sched time.Time, body []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			status, err := postOnce(c, url, body)
			if err != nil {
				mu.Lock()
				res.countErr(status)
				mu.Unlock()
				return
			}
			lat := time.Since(sched).Nanoseconds()
			mu.Lock()
			res.lats = append(res.lats, lat)
			mu.Unlock()
		}(sched, corpus[i%len(corpus)])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// postOnce issues one estimate request, draining and closing the response so
// the transport can reuse the connection. It returns the HTTP status (0 when
// no response arrived) and non-nil err for any failure; a non-200 answer is
// an error carrying its status, so callers can count refusals per code
// separately from transport breakage.
func postOnce(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if cerr != nil {
		return 0, cerr
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.StatusCode, nil
}

// waitReady polls the health endpoint until the daemon answers or the
// budget runs out, so the generator can be started alongside the server.
func waitReady(c *http.Client, healthURL string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := c.Get(healthURL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not ready after %v: %v", budget, err)
			}
			return fmt.Errorf("server not ready after %v", budget)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// summarize sorts the latencies and derives the reported statistics. batch
// is the number of estimates each request carried. ok is false when no
// request succeeded.
func summarize(r runResult, batch int) (stats, bool) {
	if len(r.lats) == 0 {
		return stats{}, false
	}
	sort.Slice(r.lats, func(i, j int) bool { return r.lats[i] < r.lats[j] })
	var sum int64
	for _, l := range r.lats {
		sum += l
	}
	n := len(r.lats)
	qps := float64(n) / r.elapsed.Seconds()
	return stats{
		n:    n,
		qps:  qps,
		eps:  qps * float64(batch),
		mean: float64(sum) / float64(n),
		p50:  percentile(r.lats, 50),
		p95:  percentile(r.lats, 95),
		p99:  percentile(r.lats, 99),
	}, true
}

// percentile reads the p-th percentile (nearest-rank) from sorted latencies.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// benchLine renders the run as one `go test -bench`-style line: the name,
// the request count, the mean latency as ns/op, then custom units (qps, eps,
// p50-ns, p95-ns, p99-ns). Failures append too, broken out per status code
// (err-429, err-503, ...) and as err-transport, so the line says what kind of
// refusals a run hit — but only when non-zero, keeping clean runs' lines
// clean.
func benchLine(name string, conns int, s stats, res runResult) string {
	line := fmt.Sprintf("Benchmark%s-%d\t%8d\t%10.0f ns/op\t%12.1f qps\t%12.1f eps\t%10d p50-ns\t%10d p95-ns\t%10d p99-ns",
		name, conns, s.n, s.mean, s.qps, s.eps, s.p50, s.p95, s.p99)
	for _, code := range sortedCodes(res.statusErr) {
		line += fmt.Sprintf("\t%10d err-%d", res.statusErr[code], code)
	}
	if res.transport > 0 {
		line += fmt.Sprintf("\t%10d err-transport", res.transport)
	}
	return line
}

// batchCorpus groups size consecutive corpus entries into one JSON array
// body, wrapping around when the corpus does not divide evenly.
func batchCorpus(corpus [][]byte, size int) [][]byte {
	batched := make([][]byte, 0, (len(corpus)+size-1)/size)
	for start := 0; start < len(corpus); start += size {
		body := append([]byte(nil), '[')
		for k := 0; k < size; k++ {
			if k > 0 {
				body = append(body, ',')
			}
			body = append(body, corpus[(start+k)%len(corpus)]...)
		}
		body = append(body, ']')
		batched = append(batched, body)
	}
	return batched
}

// synthesizeCorpus runs a short two-app shared simulation and converts every
// recorded interval snapshot into a wire request, so benchmark traffic
// carries realistic counter values and natural variety across intervals.
func synthesizeCorpus(cycles uint64) ([][]byte, error) {
	cfg := config.Default()
	var ps []kernels.Profile
	for _, abbr := range []string{"SB", "SD"} {
		p, ok := kernels.ByAbbr(abbr)
		if !ok {
			return nil, fmt.Errorf("kernel %s not in catalogue", abbr)
		}
		ps = append(ps, p)
	}
	res, err := sim.RunShared(cfg, ps, sim.EvenAllocation(cfg.NumSMs, len(ps)), cycles, 1)
	if err != nil {
		return nil, err
	}
	var corpus [][]byte
	for i := range res.Snapshots {
		snap := &res.Snapshots[i]
		if snap.IntervalCycles == 0 || len(snap.Apps) == 0 {
			continue
		}
		req := estimate.FromSnapshot(snap)
		corpus = append(corpus, estimate.AppendRequest(nil, &req))
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("simulation recorded no usable snapshots")
	}
	return corpus, nil
}
