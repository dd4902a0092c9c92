package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/estimate"
	"dasesim/internal/kernels"
	"dasesim/internal/sched"
	"dasesim/internal/server"
	"dasesim/internal/sim"
)

// estSpec fixes the request shape of one est-* workload.
type estSpec struct {
	apps  int // applications per snapshot
	batch int // snapshots per request body
}

var estSpecs = map[string]estSpec{
	"est-single":  {apps: 2, batch: 1},
	"est-batch16": {apps: 4, batch: 16},
}

// corpus is the request traffic of an est-* run, built before timing starts.
type corpus struct {
	bodies [][]byte
	snaps  []sim.IntervalSnapshot // the snapshot behind bodies[i]'s first entry
}

// buildCorpus simulates seed-chosen kernel mixes with a shortened estimation
// interval and turns every interval snapshot into a wire request, so the
// traffic carries realistic counters with natural variety. Bodies of a
// batched workload are sliding windows over the snapshots: as many distinct
// bodies as snapshots.
func buildCorpus(seed uint64, spec estSpec, sz sizes) (*corpus, error) {
	cfg := config.Default()
	cfg.IntervalCycles = sz.CorpusIntervalCycles
	all := kernels.All()
	nsims := (sz.CorpusSnapshots + sz.CorpusSnapsPerSim - 1) / sz.CorpusSnapsPerSim
	type mix struct {
		ps   []kernels.Profile
		seed uint64
	}
	r := rng(seed)
	mixes := make([]mix, nsims)
	for i := range mixes {
		picked := map[int]bool{}
		for len(mixes[i].ps) < spec.apps {
			if k := r.intn(len(all)); !picked[k] {
				picked[k] = true
				mixes[i].ps = append(mixes[i].ps, all[k])
			}
		}
		mixes[i].seed = r.next()>>24 + 1
	}
	results := make([]*sim.Result, nsims)
	if err := forEach(nsims, func(i int) error {
		res, err := sim.RunShared(cfg, mixes[i].ps, sim.EvenAllocation(cfg.NumSMs, spec.apps),
			uint64(sz.CorpusSnapsPerSim)*sz.CorpusIntervalCycles, mixes[i].seed)
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}
	c := &corpus{}
	var singles [][]byte
	seen := map[string]bool{}
	for _, res := range results {
		for i := range res.Snapshots {
			req := estimate.FromSnapshot(&res.Snapshots[i])
			body := estimate.AppendRequest(nil, &req)
			if seen[string(body)] {
				continue
			}
			seen[string(body)] = true
			singles = append(singles, body)
			c.snaps = append(c.snaps, res.Snapshots[i])
		}
	}
	if len(singles) < sz.CorpusSnapshots {
		return nil, fmt.Errorf("corpus has %d distinct snapshots, want %d", len(singles), sz.CorpusSnapshots)
	}
	if spec.batch == 1 {
		c.bodies = singles
		return c, nil
	}
	for i := range singles {
		body := []byte{'['}
		for k := 0; k < spec.batch; k++ {
			if k > 0 {
				body = append(body, ',')
			}
			body = append(body, singles[(i+k)%len(singles)]...)
		}
		c.bodies = append(c.bodies, append(body, ']'))
	}
	return c, nil
}

// daemon is dased inside the bench process: server.New(...).Handler() on a
// loopback listener, journal and tracing off, default Options otherwise.
// Request logs are formatted as in production but written nowhere.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	cl   *http.Client
}

func startDaemon(clients int) (*daemon, error) {
	srv, err := server.New(server.Options{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		cl:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
	go d.http.Serve(ln) // returns when stop shuts the listener down
	return d, nil
}

// stop shuts the listener, the idle client connections and the worker pool
// down and waits for them.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.cl.CloseIdleConnections()
	if err := d.http.Shutdown(ctx); err != nil {
		return err
	}
	return d.srv.Shutdown(ctx)
}

// runEstLoop is one closed-loop phase against POST /v1/estimate: sz.Clients
// goroutines, each sending its next request only after the previous answer.
// Every response must be 200; every sz.CheckEvery-th is compared byte for
// byte with Service.Process on the same body.
func runEstLoop(d *daemon, svc *estimate.Service, c *corpus, spec estSpec, sz sizes, dur time.Duration, tr *tracer) *loopStats {
	var next atomic.Uint64
	per := make([]loopStats, sz.Clients)
	url := d.url + "/v1/estimate"
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < sz.Clients; w++ {
		wg.Add(1)
		go func(l *loopStats) {
			defer wg.Done()
			sc := svc.Get()
			defer svc.Put(sc)
			var resp bytes.Buffer
			for t0 := time.Now(); t0.Before(deadline); t0 = time.Now() {
				i := next.Add(1)
				body := c.bodies[i%uint64(len(c.bodies))]
				status, err := post(d.cl, url, body, &resp)
				t1 := time.Now()
				switch {
				case err != nil:
					l.fail("request %d: %v", i, err)
				case status != http.StatusOK:
					l.fail("request %d: status %d", i, status)
				default:
					l.ops = append(l.ops, op{end: t1.Sub(start), lat: t1.Sub(t0), work: float64(spec.batch)})
					tr.add("client.request", -1, int(i), t0, t1)
					if i%uint64(sz.CheckEvery) == 0 {
						sc.Body = append(sc.Body[:0], body...)
						if err := svc.Process(sc); err != nil {
							l.fail("request %d: in-process: %v", i, err)
						} else if sc.BatchSize() != spec.batch {
							l.fail("request %d: batch size %d, want %d", i, sc.BatchSize(), spec.batch)
						} else if !bytes.Equal(sc.Out, resp.Bytes()) {
							l.fail("request %d: HTTP bytes differ from Service.Process", i)
						}
					}
				}
				l.busy += time.Since(t0)
			}
		}(&per[w])
	}
	wg.Wait()
	out := &loopStats{}
	for i := range per {
		out.merge(&per[i])
	}
	return out
}

// post issues one request and reads the whole answer into resp, so the
// transport can reuse the connection.
func post(cl *http.Client, url string, body []byte, resp *bytes.Buffer) (int, error) {
	r, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp.Reset()
	_, err = resp.ReadFrom(r.Body)
	r.Body.Close()
	return r.StatusCode, err
}

func runEst(name string, p *params) (*report, error) {
	spec := estSpecs[name]
	rep := newReport(name, p)
	svc := estimate.NewService(estimate.Options{}) // the server's own defaults

	// Set-up: corpus simulations and daemon start.
	var c *corpus
	var d *daemon
	setupS, err := timeSetups(p.sz.Setups, func() error {
		var err error
		if c, err = buildCorpus(p.seed, spec, p.sz); err != nil {
			return err
		}
		d, err = startDaemon(p.sz.Clients)
		return err
	}, func() error { return d.stop() })
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.setStat("setup_s", setupS)
	rep.Digests["corpus"] = digest(c.bodies)

	warm := time.Duration(p.sz.WarmupSeconds * float64(time.Second))
	measure := time.Duration(p.sz.MeasureSeconds * float64(time.Second))
	runEstLoop(d, svc, c, spec, p.sz, warm, nil)
	runtime.GC()
	plain := runEstLoop(d, svc, c, spec, p.sz, measure, nil)
	loop := plain
	if p.traced() {
		runtime.GC()
		loop = runEstLoop(d, svc, c, spec, p.sz, measure, p.tr)
	}
	rep.Attempted = len(loop.ops) + loop.failed
	rep.Failed += loop.failed
	rep.Failures = append(rep.Failures, loop.failures...)
	if len(plain.ops) == 0 || len(loop.ops) == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", loop.failures)
	}

	tracedP50 := rep.setPhase(p, plain.ops, loop.ops)
	if !p.traced() {
		return rep, nil
	}
	rep.set("bench.client_ns", loop.clientNs())

	estLayers(d, svc, c, spec, p.sz.LayerSamples, tracedP50*1000, rep, p.tr)
	return rep, nil
}

// replayBody is a request body that can be rewound without allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is the smallest http.ResponseWriter: it counts bytes.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// layerCall is one layer's call under estLayers' timer.
type layerCall struct {
	name string
	fn   func(i int)

	total   time.Duration
	mallocs uint64
}

// timeInterleaved calls every layer n times, alternating between them in
// blocks, so a drift in host speed falls on all of them alike and their
// differences (overhead = handler - process) stay meaningful.
func timeInterleaved(tr *tracer, n, block int, calls []*layerCall) {
	var before, after runtime.MemStats
	for _, c := range calls {
		c.fn(0) // warm pools and scratch capacity
	}
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		for _, c := range calls {
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				c.fn(i)
			}
			t1 := time.Now()
			runtime.ReadMemStats(&after)
			c.total += t1.Sub(t0)
			c.mallocs += after.Mallocs - before.Mallocs
			tr.add(c.name, -1, lo, t0, t1)
		}
	}
}

// estLayers times the layers of one estimate request from outside, over the
// same n snapshots on one goroutine: the HTTP handler without a network
// against Service.Process on a pooled Scratch, then per snapshot the DASE
// model against model + partition search. The layers nest, so each one's
// self time is its own time minus its children's; clientP50Ns is the traced
// closed loop's median round trip, the outermost span.
func estLayers(d *daemon, svc *estimate.Service, c *corpus, spec estSpec, n int, clientP50Ns float64, rep *report, tr *tracer) {
	h := d.srv.Handler()
	body := &replayBody{}
	req, _ := http.NewRequest(http.MethodPost, "/v1/estimate", body)
	req.Header.Set("Content-Type", "application/json")
	w := &discardWriter{h: http.Header{}}
	handler := &layerCall{name: "server.handler", fn: func(i int) {
		b := c.bodies[i%len(c.bodies)]
		body.Reset(b)
		req.ContentLength = int64(len(b))
		h.ServeHTTP(w, req)
	}}
	sc := svc.Get()
	defer svc.Put(sc)
	var bodyBytes int
	process := &layerCall{name: "estimate.process", fn: func(i int) {
		sc.Body = append(sc.Body[:0], c.bodies[i%len(c.bodies)]...)
		bodyBytes += len(sc.Body)
		svc.Process(sc) // errors were counted by the closed loop's byte check
	}}
	reqs := n / spec.batch // n counts snapshots
	timeInterleaved(tr, reqs, 256/spec.batch, []*layerCall{handler, process})

	dase := core.New(core.Options{})
	var det []core.AppEstimate
	model := &layerCall{name: "core.estimate", fn: func(i int) {
		det = dase.EstimateDetailedInto(&c.snaps[i%len(c.snaps)], det)
	}}
	slow := make([]float64, spec.apps)
	cur := make([]int, spec.apps)
	best := make([]int, spec.apps)
	cand := make([]int, spec.apps)
	search := &layerCall{name: "sched.search", fn: func(i int) {
		snap := &c.snaps[i%len(c.snaps)]
		det = dase.EstimateDetailedInto(snap, det) // the search's input
		for a := range det {
			slow[a], cur[a] = det[a].Slowdown, snap.Apps[a].SMs
		}
		sched.SearchBestPartitionScratch(slow, cur, snap.NumSMs, 1, best, cand)
	}}
	timeInterleaved(tr, n, 256, []*layerCall{model, search})

	handlerNs, processNs := meanNs(handler.total, reqs), meanNs(process.total, reqs)
	coreNs, searchNs := meanNs(model.total, n), meanNs(search.total-model.total, n)
	rep.set("net.roundtrip_ns", clientP50Ns-handlerNs)
	rep.set("server.estimate_handler_ns", handlerNs)
	rep.set("server.overhead_ns", handlerNs-processNs)
	rep.set("server.allocs_per_req", float64(handler.mallocs)/float64(reqs))
	rep.set("estimate.process_ns", processNs)
	rep.set("estimate.allocs_per_req", float64(process.mallocs)/float64(reqs))
	rep.set("estimate.body_bytes", float64(bodyBytes)/float64(reqs+1)) // +1: the warm-up call
	rep.set("estimate.resp_bytes", float64(w.n)/float64(reqs+1))
	rep.set("estimate.codec_ns", processNs-float64(spec.batch)*(coreNs+searchNs))
	rep.set("core.estimate_ns", coreNs)
	rep.set("sched.search_ns", searchNs)
}
