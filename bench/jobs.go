package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/server"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
)

// jobRequests builds n two-kernel shared jobs with distinct content
// addresses. The kernel pairs are a fixed balanced rotation over Table III —
// every seed simulates the same mix, so job cost does not depend on the seed
// — while the seed picks the order and the simulation seeds.
func jobRequests(seed uint64, n int, cycles uint64) []server.JobRequest {
	names := kernels.Names()
	k := len(names)
	r := rng(seed)
	base := r.next()>>24 + 1
	reqs := make([]server.JobRequest, n)
	for i := range reqs {
		first := i % k
		second := (first + 1 + (i/k)%(k-1)) % k
		reqs[i] = server.JobRequest{
			Kernels: []string{names[first], names[second]},
			Cycles:  cycles,
			Seed:    base + uint64(i),
		}
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	return reqs
}

// jobView is the part of a job's JSON view the bench reads; Result stays
// raw so hits can be compared byte for byte with the run that produced them.
type jobView struct {
	ID          string          `json:"id"`
	Status      server.Status   `json:"status"`
	Attempts    int             `json:"attempts"`
	CacheHit    bool            `json:"cache_hit"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at"`
	WallMS      float64         `json:"wall_ms"`
	Result      json.RawMessage `json:"result"`
}

// simDigest is the digest of the sim.Result inside a job's result JSON, in
// the same form digest gives a direct run's *sim.Result.
func simDigest(result json.RawMessage) (string, error) {
	var jr server.JobResult
	if err := json.Unmarshal(result, &jr); err != nil {
		return "", err
	}
	if jr.Sim == nil {
		return "", fmt.Errorf("result has no sim")
	}
	return digest(jr.Sim), nil
}

// jobLoop is one closed-loop phase against the job API: each client posts a
// job, long-polls its result, and only then takes the next one.
type jobLoop struct {
	loopStats
	views []jobView // by request index; the last view seen for it
}

// runJobLoop submits bodies[i%len] for i = 0, 1, ... until total jobs were
// taken (total > 0) or dur has passed (total == 0). check inspects every
// finished job's view and returns a complaint or "".
func runJobLoop(d *daemon, bodies [][]byte, total int, dur time.Duration, clients int, check func(k int, v *jobView) string, tr *tracer) *jobLoop {
	var next atomic.Int64
	per := make([]jobLoop, clients)
	var wg sync.WaitGroup
	url := d.url + "/v1/jobs"
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(l *jobLoop) {
			defer wg.Done()
			l.views = make([]jobView, len(bodies))
			var resp bytes.Buffer
			for {
				t0 := time.Now()
				i := int(next.Add(1) - 1)
				if (total > 0 && i >= total) || (total == 0 && !t0.Before(deadline)) {
					return
				}
				k := i % len(bodies)
				var v jobView
				status, err := post(d.cl, url, bodies[k], &resp)
				t1 := time.Now()
				if err == nil && status != http.StatusAccepted {
					err = fmt.Errorf("submit status %d: %s", status, bytes.TrimSpace(resp.Bytes()))
				}
				if err == nil {
					err = json.Unmarshal(resp.Bytes(), &v)
				}
				if err == nil {
					err = get(d.cl, url+"/"+v.ID+"?wait_ms=60000", &resp)
				}
				t2 := time.Now()
				if err == nil {
					v = jobView{}
					err = json.Unmarshal(resp.Bytes(), &v)
				}
				switch {
				case err != nil:
					l.fail("job %d: %v", i, err)
				case v.Status != server.StatusDone:
					l.fail("job %d (%s): status %s", i, v.ID, v.Status)
				default:
					l.ops = append(l.ops, op{end: t2.Sub(start), lat: t2.Sub(t0), work: 1})
					if msg := check(k, &v); msg != "" {
						l.fail("job %d (%s): %s", i, v.ID, msg)
					}
					l.views[k] = v
					root := tr.add("client.job", -1, i, t0, t2)
					tr.add("client.submit", root, i, t0, t1)
					tr.add("client.wait", root, i, t1, t2)
				}
				l.busy += time.Since(t0)
			}
		}(&per[w])
	}
	wg.Wait()
	out := &jobLoop{views: make([]jobView, len(bodies))}
	for i := range per {
		out.merge(&per[i].loopStats)
		for k := range per[i].views {
			if per[i].views[k].ID != "" {
				out.views[k] = per[i].views[k]
			}
		}
	}
	return out
}

// get fetches url into resp; any status but 200 is an error.
func get(cl *http.Client, url string, resp *bytes.Buffer) error {
	r, err := cl.Get(url)
	if err != nil {
		return err
	}
	resp.Reset()
	_, err = resp.ReadFrom(r.Body)
	r.Body.Close()
	if err == nil && r.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", r.StatusCode, bytes.TrimSpace(resp.Bytes()))
	}
	return err
}

func runJobs(name string, p *params) (*report, error) {
	hit := name == "jobs-hit"
	rep := newReport(name, p)
	cfg := config.Default()
	n := p.sz.ColdJobs
	if hit {
		n = p.sz.HitJobs
	}
	reqs := jobRequests(p.seed, n, p.sz.JobCycles)
	bodies := make([][]byte, n)
	for i := range reqs {
		bodies[i], _ = json.Marshal(reqs[i])
	}
	noCheck := func(int, *jobView) string { return "" }

	// Set-up. jobs-cold: the daemon, plus every ColdDirectEach-th request
	// run directly through sim.RunShared — the reference its job must
	// reproduce and the base of server.cold_overhead_ms. jobs-hit: the
	// daemon, plus every request simulated once so the cache is warm.
	var d *daemon
	direct := map[int]string{} // request index -> digest of the direct run
	var directMS []float64
	var cold *jobLoop
	setupS, err := timeSetups(p.sz.Setups, func() error {
		var err error
		if d, err = startDaemon(p.sz.Clients); err != nil {
			return err
		}
		if hit {
			cold = runJobLoop(d, bodies, n, 0, p.sz.Clients, noCheck, nil)
			if cold.failed > 0 {
				return fmt.Errorf("cache warm-up: %v", cold.failures)
			}
			return nil
		}
		var idx []int
		for i := 0; i < n; i += p.sz.ColdDirectEach {
			idx = append(idx, i)
		}
		digs := make([]string, len(idx))
		ms := make([]float64, len(idx))
		err = forEach(len(idx), func(j int) error {
			rq := reqs[idx[j]]
			ps, err := profiles(rq.Kernels...)
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := sim.RunShared(cfg, ps, sim.EvenAllocation(cfg.NumSMs, len(ps)), rq.Cycles, rq.Seed)
			ms[j] = float64(time.Since(t0)) / float64(time.Millisecond)
			digs[j] = digest(res)
			return err
		})
		for j, i := range idx {
			if prev, ok := direct[i]; ok && prev != digs[j] {
				rep.failf("direct run of request %d differs between set-up repetitions", i)
			}
			direct[i] = digs[j]
		}
		directMS = ms
		return err
	}, func() error { return d.stop() })
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.setStat("setup_s", setupS)

	// Per finished job: cold jobs must have simulated and match their direct
	// run; hits must not have simulated and must carry the cold run's bytes.
	check := func(k int, v *jobView) string {
		if v.CacheHit != hit {
			return fmt.Sprintf("cache_hit %v, want %v", v.CacheHit, hit)
		}
		if hit {
			if !bytes.Equal(v.Result, cold.views[k].Result) {
				return "result JSON differs from the cold run that produced it"
			}
			return ""
		}
		if want, ok := direct[k]; ok {
			if got, err := simDigest(v.Result); err != nil || got != want {
				return fmt.Sprintf("sim.Result digest %s (%v), direct run gave %s", got, err, want)
			}
		}
		return ""
	}
	phase := func(tr *tracer) *jobLoop {
		runtime.GC()
		if hit {
			return runJobLoop(d, bodies, 0, time.Duration(p.sz.MeasureSeconds*float64(time.Second)), p.sz.Clients, check, tr)
		}
		return runJobLoop(d, bodies, n, 0, p.sz.Clients, check, tr)
	}
	if hit {
		runJobLoop(d, bodies, 0, time.Duration(p.sz.WarmupSeconds*float64(time.Second)), p.sz.Clients, check, nil)
	}
	plain := phase(nil)
	loop := plain
	if p.traced() {
		if !hit {
			// A second cold pass needs content addresses the cache has not
			// seen: same mix, next seeds.
			for i := range reqs {
				reqs[i].Seed += uint64(n)
				bodies[i], _ = json.Marshal(reqs[i])
			}
			direct = map[int]string{}
		}
		loop = phase(p.tr)
	}
	rep.Attempted = len(loop.ops) + loop.failed
	rep.Failed += loop.failed
	rep.Failures = append(rep.Failures, loop.failures...)
	if len(plain.ops) == 0 || len(loop.ops) == 0 {
		return nil, fmt.Errorf("no job succeeded: %v", loop.failures)
	}
	digs := make([]string, n)
	for k := range digs {
		if digs[k], err = simDigest(plain.views[k].Result); err != nil {
			rep.failf("request %d: %v", k, err)
		}
	}
	rep.Digests["results"] = digest(digs)

	tracedP50 := rep.setPhase(p, plain.ops, loop.ops)
	if !p.traced() {
		return rep, nil
	}
	rep.set("bench.client_ns", loop.clientNs())

	// From the job views: where a job's time went inside the daemon.
	var waits, runs []float64
	var hits, retries int
	for k := range loop.views {
		v := &loop.views[k]
		if v.ID == "" || v.StartedAt == nil {
			continue
		}
		waits = append(waits, float64(v.StartedAt.Sub(v.SubmittedAt))/float64(time.Microsecond))
		runs = append(runs, v.WallMS)
		retries += v.Attempts - 1
		if v.CacheHit {
			hits++
		}
	}
	rep.set("server.queue_wait_us", metrics.Median(waits))
	rep.set("server.run_ms", metrics.Median(runs))
	rep.set("server.retries", float64(retries))
	rep.set("simcache.hit_ratio", float64(hits)/float64(len(waits)))
	if !hit {
		rep.set("server.cold_overhead_ms", tracedP50/1000-metrics.Median(directMS))
	}

	jobLayers(d, cfg, reqs, rep, p.tr)
	return rep, nil
}

// jobLayers times the daemon's per-job layers in process, on one goroutine:
// admission, result encoding, cache key and cache lookup. Every request is
// cached by now, so Submit walks the admission path without starting a
// simulation.
func jobLayers(d *daemon, cfg config.Config, reqs []server.JobRequest, rep *report, tr *tracer) {
	const calls = 256
	n := len(reqs)
	var submit, encode time.Duration
	var encoded int
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		v, err := d.srv.Submit(reqs[i%n])
		t1 := time.Now()
		if err != nil {
			rep.failf("in-process submit: %v", err)
			return
		}
		submit += t1.Sub(t0)
		tr.add("server.submit", -1, i, t0, t1)
		// Wait for this job before the next, so the queue stays short.
		for v.Status != server.StatusDone {
			time.Sleep(20 * time.Microsecond)
			v, _ = d.srv.View(v.ID)
		}
		t0 = time.Now()
		data, err := json.Marshal(v)
		t1 = time.Now()
		if err != nil {
			rep.failf("encode view %s: %v", v.ID, err)
		}
		encode += t1.Sub(t0)
		encoded += len(data)
		tr.add("server.result_encode", -1, i, t0, t1)
	}
	rep.set("server.submit_ns", meanNs(submit, calls))
	rep.set("server.result_encode_us", meanNs(encode, calls)/1000)
	rep.set("server.result_bytes", float64(encoded)/calls)

	pss := make([][]kernels.Profile, n)
	for i := range reqs {
		pss[i], _ = profiles(reqs[i].Kernels...) // the daemon resolved the same names
	}
	alloc := sim.EvenAllocation(cfg.NumSMs, 2)
	keys := make([]string, n)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		k := i % n
		keys[k] = simcache.Key(cfg, pss[k], alloc, reqs[k].Cycles, reqs[k].Seed, "shared/even")
	}
	t1 := time.Now()
	tr.add("simcache.key", -1, -1, t0, t1)
	rep.set("simcache.key_ns", meanNs(t1.Sub(t0), calls))

	mem := simcache.NewMemory(0)
	for _, k := range keys {
		mem.Put(k, &sim.Result{})
	}
	const gets = 100_000
	t0 = time.Now()
	for i := 0; i < gets; i++ {
		mem.Get(keys[i%n])
	}
	t1 = time.Now()
	tr.add("simcache.get", -1, -1, t0, t1)
	rep.set("simcache.get_ns", meanNs(t1.Sub(t0), gets))
}
