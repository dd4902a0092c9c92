// Command daseload is a load generator for dased's online estimation API
// (POST /v1/estimate). It drives a running daemon with per-interval counter
// snapshots and reports achieved throughput and latency percentiles as one
// `go test -bench`-style line.
//
// The repository benchmark (`go run ./bench`, workloads est-single and
// est-batch16) measures the same endpoint closed-loop only; the open loop
// below is what daseload adds.
//
// Two traffic models:
//
//   - closed loop (-mode closed): -conns workers issue requests
//     back-to-back; latency is the request duration. Measures the service's
//     capacity under saturation.
//   - open loop (-mode open): requests are scheduled at a fixed -qps
//     independent of completions; latency is measured from the scheduled
//     send time, so queueing delay under overload is visible
//     (closed-loop numbers hide it — see "coordinated omission").
//
// The request corpus is an NDJSON file of estimate request bodies
// (-corpus), or, by default, synthesized by running a short two-app shared
// simulation and converting its recorded interval snapshots — so the load
// is shaped like real counter traffic, not toy constants.
//
// Usage:
//
//	daseload -addr http://localhost:8844 -mode closed -conns 8 -duration 10s
//	daseload -mode open -qps 50000 -conns 256 -duration 10s
//	daseload -corpus snapshots.ndjson -batch 16
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dasesim"
	"dasesim/internal/estimate"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8844", "base URL of the dased instance")
	mode := flag.String("mode", "closed", "traffic model: closed | open")
	conns := flag.Int("conns", 8, "closed loop: worker count; open loop: max in-flight requests")
	qps := flag.Float64("qps", 0, "open loop: target request rate (required for -mode open)")
	duration := flag.Duration("duration", 5*time.Second, "measured run length")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "closed-loop warmup before measuring (connections, pools)")
	corpusPath := flag.String("corpus", "", "NDJSON file of estimate request bodies (default: synthesized from a short simulation)")
	batch := flag.Int("batch", 1, "snapshots per request: group this many corpus entries into one array body")
	flag.Parse()

	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "daseload: "+format+"\n", args...)
		os.Exit(1)
	}

	var corpus [][]byte
	var err error
	if *corpusPath != "" {
		corpus, err = loadCorpus(*corpusPath)
	} else {
		fmt.Fprintln(os.Stderr, "daseload: synthesizing corpus from a two-app shared simulation")
		corpus, err = synthesizeCorpus(300_000)
	}
	if err != nil {
		fatal("corpus: %v", err)
	}
	fmt.Fprintf(os.Stderr, "daseload: corpus of %d request bodies\n", len(corpus))
	if *batch > 1 {
		corpus = batchCorpus(corpus, *batch)
	} else if *batch < 1 {
		fatal("-batch must be >= 1")
	}

	url := strings.TrimRight(*addr, "/") + "/v1/estimate"
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conns,
		MaxIdleConnsPerHost: *conns,
	}}
	if err := waitReady(client, strings.TrimRight(*addr, "/")+"/healthz", 5*time.Second); err != nil {
		fatal("%v", err)
	}

	var res runResult
	var benchName string
	switch *mode {
	case "closed":
		benchName = "ServeClosed"
		if *warmup > 0 {
			closedLoop(client, url, corpus, *conns, *warmup)
		}
		res = closedLoop(client, url, corpus, *conns, *duration)
	case "open":
		benchName = "ServeOpen"
		if *qps <= 0 {
			fatal("-mode open requires -qps > 0")
		}
		res = openLoop(client, url, corpus, *qps, *conns, *duration)
	default:
		fatal("unknown -mode %q (closed | open)", *mode)
	}

	if n := res.errs(); n > 0 {
		fmt.Fprintf(os.Stderr, "daseload: %d requests failed\n", n)
		for _, code := range sortedCodes(res.statusErr) {
			fmt.Fprintf(os.Stderr, "daseload:   HTTP %d: %d\n", code, res.statusErr[code])
		}
		if res.transport > 0 {
			fmt.Fprintf(os.Stderr, "daseload:   transport (no response): %d\n", res.transport)
		}
	}
	s, ok := summarize(res, *batch)
	if !ok {
		fatal("no successful requests")
	}
	fmt.Println(benchLine(benchName, *conns, s, res))
	fmt.Fprintf(os.Stderr, "daseload: %d requests in %v: %.0f qps (%.0f estimates/s), p50 %v p95 %v p99 %v\n",
		s.n, res.elapsed.Round(time.Millisecond), s.qps, s.eps,
		time.Duration(s.p50), time.Duration(s.p95), time.Duration(s.p99))
	if res.errs() > 0 {
		os.Exit(1)
	}
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

// merge folds another result's latencies and failure counts into r.
func (r *runResult) merge(o runResult) {
	r.lats = append(r.lats, o.lats...)
	r.transport += o.transport
	for code, n := range o.statusErr {
		if r.statusErr == nil {
			r.statusErr = map[int]int64{}
		}
		r.statusErr[code] += n
	}
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

// closedLoop saturates the endpoint with conns workers issuing requests
// back-to-back for d. Latency is the individual request duration.
func closedLoop(c *http.Client, url string, corpus [][]byte, conns int, d time.Duration) runResult {
	var next uint64
	perWorker := make([]runResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := atomic.AddUint64(&next, 1)
				body := corpus[int(i)%len(corpus)]
				t0 := time.Now()
				if status, err := postOnce(c, url, body); err != nil {
					perWorker[w].countErr(status)
					continue
				}
				perWorker[w].lats = append(perWorker[w].lats, time.Since(t0).Nanoseconds())
			}
		}(w)
	}
	wg.Wait()
	res := runResult{elapsed: time.Since(start)}
	for w := range perWorker {
		res.merge(perWorker[w])
	}
	return res
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

// loadCorpus reads one estimate request body per non-empty line.
func loadCorpus(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var corpus [][]byte
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		corpus = append(corpus, line)
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("%s: no request lines", path)
	}
	return corpus, nil
}

// synthesizeCorpus runs a short two-app shared simulation and converts every
// recorded interval snapshot into a wire request, so benchmark traffic
// carries realistic counter values and natural variety across intervals.
func synthesizeCorpus(cycles uint64) ([][]byte, error) {
	cfg := dasesim.DefaultConfig()
	var ps []dasesim.KernelProfile
	for _, abbr := range []string{"SB", "SD"} {
		p, ok := dasesim.KernelByAbbr(abbr)
		if !ok {
			return nil, fmt.Errorf("kernel %s not in catalogue", abbr)
		}
		ps = append(ps, p)
	}
	res, err := dasesim.RunShared(cfg, ps, dasesim.EvenAllocation(cfg.NumSMs, len(ps)), cycles, 1)
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
