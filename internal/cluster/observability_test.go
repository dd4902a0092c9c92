package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"dasesim/internal/server"
	"dasesim/internal/telemetry"
)

// obsAdjust turns on both observability layers with fixed seeds: the span
// sources mint deterministic IDs, so reruns of these tests produce the same
// trace topology.
func obsCluster(t *testing.T, withJournal bool, adjust func(*Options), ids ...string) map[string]*testNode {
	t.Helper()
	seed := uint64(0)
	return startClusterOpts(t, withJournal,
		func(o *Options) {
			o.TraceEvents = 4096
			seed++
			o.TraceSeed = 1000 + seed
			if adjust != nil {
				adjust(o)
			}
		},
		func(o *server.Options) {
			o.TraceEvents = 4096
			o.TraceSeed = 2000 + uint64(o.NodeID[len(o.NodeID)-1])
		},
		ids...)
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, data
}

// gatherClusterNDJSON pulls every live node's cluster-layer trace plus every
// finished job's trace as NDJSON over HTTP (strict-validated — the same path
// CI uses) and returns the merged event stream.
func gatherClusterNDJSON(t *testing.T, nodes map[string]*testNode) []telemetry.Event {
	t.Helper()
	var merged []telemetry.Event
	for id, tn := range nodes {
		if !tn.alive {
			continue
		}
		st, data := httpGet(t, tn.ts.URL+"/cluster/v1/trace?format=ndjson")
		if st != http.StatusOK {
			t.Fatalf("%s cluster trace: status %d", id, st)
		}
		events, err := telemetry.ReadNDJSONStrict(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s cluster trace schema-invalid: %v", id, err)
		}
		merged = append(merged, events...)
		for _, v := range tn.srv.Views() {
			st, data := httpGet(t, tn.ts.URL+"/v1/jobs/"+v.ID+"/trace?format=ndjson")
			if st != http.StatusOK {
				continue // proxied or trace-less record
			}
			events, err := telemetry.ReadNDJSONStrict(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s job %s trace schema-invalid: %v", id, v.ID, err)
			}
			merged = append(merged, events...)
		}
	}
	return merged
}

// tracesByKind indexes merged events: kind → events, keeping only span-carrying ones.
func spanEvents(events []telemetry.Event, trace uint64) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range events {
		if e.TraceID == trace {
			out = append(out, e)
		}
	}
	return out
}

// TestClusterMetricsFederation exercises the scatter-gather endpoint: the
// merged Prometheus view sums per-node counters, the by-node variant keeps a
// leading node label, the JSON form feeds dasetop, and the per-RPC latency
// histogram has heartbeat observations on every node.
func TestClusterMetricsFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node test runs simulations")
	}
	nodes := obsCluster(t, false, nil, "n1", "n2", "n3")
	n1 := nodes["n1"]
	seed := uint64(1)

	// One job per node by routing preference, so every member has non-zero
	// submission counters.
	var reqs []server.JobRequest
	for _, owner := range []string{"n1", "n2", "n3"} {
		req := pinRequest(t, n1, testCycles, &seed, ownedBy(owner))
		if _, code := postJobTo(t, n1.ts.URL, req); code != http.StatusAccepted {
			t.Fatalf("submit for %s: status %d", owner, code)
		}
		reqs = append(reqs, req)
	}
	for _, req := range reqs {
		awaitDoneByRequest(t, nodes, req, 120*time.Second)
	}

	// Merged view: submissions across the cluster add up to 3.
	st, data := httpGet(t, n1.ts.URL+"/v1/cluster/metrics")
	if st != http.StatusOK {
		t.Fatalf("/v1/cluster/metrics: status %d", st)
	}
	text := string(data)
	if !strings.Contains(text, "dased_jobs_submitted_total 3") {
		t.Errorf("merged view should sum submissions to 3:\n%s", firstMatching(text, "dased_jobs_submitted_total"))
	}
	if !strings.Contains(text, "dased_cluster_rpc_latency_seconds_bucket") {
		t.Error("merged view lacks the RPC latency histogram")
	}

	// By-node view: a leading node label, one series per member.
	st, data = httpGet(t, n1.ts.URL+"/v1/cluster/metrics?by=node")
	if st != http.StatusOK {
		t.Fatalf("?by=node: status %d", st)
	}
	text = string(data)
	for _, id := range []string{"n1", "n2", "n3"} {
		if !strings.Contains(text, fmt.Sprintf(`dased_jobs_submitted_total{node=%q} 1`, id)) {
			t.Errorf("by-node view lacks %s's submission count:\n%s", id, firstMatching(text, "dased_jobs_submitted_total"))
		}
	}

	// JSON form: the dasetop contract.
	st, data = httpGet(t, n1.ts.URL+"/v1/cluster/metrics?by=node&format=json")
	if st != http.StatusOK {
		t.Fatalf("?format=json: status %d", st)
	}
	var frame struct {
		Nodes    []string                   `json:"nodes"`
		Families []telemetry.FamilySnapshot `json:"families"`
	}
	if err := json.Unmarshal(data, &frame); err != nil {
		t.Fatalf("JSON federation decode: %v", err)
	}
	if len(frame.Nodes) != 3 {
		t.Errorf("federated nodes = %v, want 3 members", frame.Nodes)
	}
	if len(frame.Families) == 0 {
		t.Fatal("JSON federation has no families")
	}

	// Unknown format is a loud 400, not silent prom fallback.
	if st, _ := httpGet(t, n1.ts.URL+"/v1/cluster/metrics?format=xml"); st != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", st)
	}

	// Every node observed heartbeat RPC latency locally.
	for id, tn := range nodes {
		found := false
		for _, f := range tn.srv.MetricsRegistry().Snapshot() {
			if f.Name != "dased_cluster_rpc_latency_seconds" {
				continue
			}
			for _, p := range f.Points {
				if len(p.LabelValues) == 1 && p.LabelValues[0] == rpcHeartbeat && p.Count > 0 {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s has no heartbeat RPC latency observations", id)
		}
	}

	// Hand-off and partition gauges are registered (zero-valued) everywhere.
	st, data = httpGet(t, n1.ts.URL+"/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics: status %d", st)
	}
	for _, name := range []string{"dased_cluster_handoffs_total", "dased_cluster_partition_suspected"} {
		if !strings.Contains(string(data), name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

// firstMatching returns the exposition lines mentioning name, for failure messages.
func firstMatching(text, name string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, name) && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestClusterTraceReconstruction is the cross-node tracing acceptance test:
// a seeded 3-node run where one job is submitted on n1, forwarded to its
// owner n2, stolen by an idle peer, and completed there — then n2 is killed
// with a second job queued, and a survivor's hand-off resubmission continues
// the same trace. The merged NDJSON (validated strictly over HTTP) must
// reconstruct the full chain under single trace IDs, and the merged Chrome
// export must carry one track per node.
func TestClusterTraceReconstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault test runs simulations")
	}
	nodes := obsCluster(t, true, func(o *Options) { o.StealThreshold = 1 }, "n1", "n2", "n3")
	n1, victim, n3 := nodes["n1"], nodes["n2"], nodes["n3"]
	seed := uint64(1)

	// Pin n2's single worker with a long job so the next arrival queues.
	longReq := pinRequest(t, n1, 300_000, &seed, ownedBy("n2"))
	if _, code := postJobTo(t, victim.ts.URL, longReq); code != http.StatusAccepted {
		t.Fatalf("long job refused: %d", code)
	}
	eventually(t, 60*time.Second, "long job running on n2", func() bool {
		for _, v := range victim.srv.Views() {
			if sameRequest(v.Request, longReq) && v.Status == server.StatusRunning {
				return true
			}
		}
		return false
	})

	// The target job: submitted via n1, owned by n2 → forwarded, queued
	// behind the long job at the head of the line. Two fillers push the
	// queue past the steal threshold, so an idle peer pulls the target.
	target := pinRequest(t, n1, testCycles, &seed, ownedBy("n2"))
	v, code := postJobTo(t, n1.ts.URL, target)
	if code != http.StatusAccepted || ownerOfJobID(v.ID) != "n2" {
		t.Fatalf("target submit: status %d id %s", code, v.ID)
	}
	for i := 0; i < 2; i++ {
		filler := pinRequest(t, n1, testCycles, &seed, ownedBy("n2"))
		if _, code := postJobTo(t, victim.ts.URL, filler); code != http.StatusAccepted {
			t.Fatalf("filler %d refused: %d", i, code)
		}
	}
	eventually(t, 60*time.Second, "an idle peer stealing from n2", func() bool {
		return n1.node.m.steals.Load()+n3.node.m.steals.Load() >= 1
	})
	done := awaitDoneByRequest(t, nodes, target, 300*time.Second)
	if !bytes.Equal(simJSON(t, done), directSimJSON(t, target)) {
		t.Fatal("stolen job diverged from the single-node reference")
	}
	// The executor is wherever the done record lives; a steal means it is
	// not the owner.
	thief := ""
	for id, tn := range nodes {
		for _, view := range tn.srv.Views() {
			if sameRequest(view.Request, target) && view.Status == server.StatusDone {
				thief = id
			}
		}
	}
	if thief == "" || thief == "n2" {
		t.Fatalf("target executed on %q; expected a steal away from the owner", thief)
	}

	// The routing decision on n1 named the target's trace.
	var targetTrace uint64
	for _, e := range n1.node.tracer.Events() {
		if e.Kind == telemetry.KindJobRouted && e.Job == v.ID {
			targetTrace = e.TraceID
		}
	}
	if targetTrace == 0 {
		t.Fatal("n1 recorded no job.routed event for the forwarded target")
	}

	merged := gatherClusterNDJSON(t, nodes)
	// Keep the owner's events: this scrape is the last one before the kill
	// below, exactly what an operator would have on disk for a dead node.
	var victimEvents []telemetry.Event
	for _, e := range merged {
		if e.Node == "n2" {
			victimEvents = append(victimEvents, e)
		}
	}
	chain := spanEvents(merged, targetTrace)
	// The chain must span n1 (routing + forward RPC), n2 (queued as the
	// owner, then forwarded to the thief) and the thief (queued + done).
	byNodeKind := map[string]map[string]bool{}
	for _, e := range chain {
		if byNodeKind[e.Node] == nil {
			byNodeKind[e.Node] = map[string]bool{}
		}
		byNodeKind[e.Node][e.Kind.String()] = true
	}
	if !byNodeKind["n1"]["cluster.rpc"] || !byNodeKind["n1"]["job.routed"] {
		t.Errorf("n1 leg missing from trace %x: %v", targetTrace, byNodeKind["n1"])
	}
	if !byNodeKind["n2"]["job.queued"] {
		t.Errorf("owner leg missing from trace %x: %v", targetTrace, byNodeKind["n2"])
	}
	if !byNodeKind[thief]["job.queued"] || !byNodeKind[thief]["job.done"] {
		t.Errorf("thief %s leg missing from trace %x: %v", thief, targetTrace, byNodeKind[thief])
	}

	// Parent linkage across the forward hop: the owner's queued span must
	// point at a span minted on n1 within the same trace.
	n1Spans := map[uint64]bool{}
	for _, e := range chain {
		if e.Node == "n1" {
			n1Spans[e.SpanID] = true
		}
	}
	linked := false
	for _, e := range chain {
		if e.Node == "n2" && e.Kind == telemetry.KindJobQueued && n1Spans[e.ParentID] {
			linked = true
		}
	}
	if !linked {
		t.Error("owner's job.queued span is not parented to a n1 span")
	}

	// Hand-off continuation: queue a second job on n2, kill it, and require
	// the survivor's resubmission to reuse the original trace. n2's single
	// worker must be free first: while it is still on the first long job (or
	// a filler), long2 would queue past the steal threshold, an idle peer
	// would steal it, and n2 would never show it running.
	eventually(t, 60*time.Second, "n2 draining its first long job and fillers", func() bool {
		for _, v := range victim.srv.Views() {
			if v.Status == server.StatusQueued || v.Status == server.StatusRunning {
				return false
			}
		}
		return true
	})
	long2 := pinRequest(t, n1, 300_000, &seed, ownedBy("n2"))
	if _, code := postJobTo(t, victim.ts.URL, long2); code != http.StatusAccepted {
		t.Fatalf("second long job refused: %d", code)
	}
	eventually(t, 60*time.Second, "second long job running on n2", func() bool {
		for _, v := range victim.srv.Views() {
			if sameRequest(v.Request, long2) && v.Status == server.StatusRunning {
				return true
			}
		}
		return false
	})
	handoffReq := pinRequest(t, n1, testCycles, &seed, ownedBy("n2"))
	hv, code := postJobTo(t, n1.ts.URL, handoffReq)
	if code != http.StatusAccepted {
		t.Fatalf("hand-off target submit: status %d", code)
	}
	var handoffTrace uint64
	for _, e := range n1.node.tracer.Events() {
		if e.Kind == telemetry.KindJobRouted && e.Job == hv.ID {
			handoffTrace = e.TraceID
		}
	}
	if handoffTrace == 0 {
		t.Fatal("n1 recorded no routing trace for the hand-off target")
	}

	victim.kill()
	handedOff := awaitDoneByRequest(t, nodes, handoffReq, 300*time.Second)
	if handedOff.ID == hv.ID {
		t.Fatalf("job %s completed under its original ID; expected a hand-off resubmission", hv.ID)
	}

	merged = gatherClusterNDJSON(t, nodes)
	continued := false
	for _, e := range spanEvents(merged, handoffTrace) {
		if e.Kind == telemetry.KindJobQueued && e.Node != "n2" && e.Job == handedOff.ID {
			continued = true
		}
	}
	if !continued {
		t.Errorf("hand-off resubmission did not continue trace %x on a survivor", handoffTrace)
	}

	// The merged stream — survivors' live scrapes plus the victim's final
	// pre-crash scrape — exports as one structurally valid Chrome trace
	// with one synthetic process per node.
	merged = append(merged, victimEvents...)
	var sb strings.Builder
	if err := telemetry.WriteChromeTrace(&sb, merged); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace([]byte(sb.String())); err != nil {
		t.Fatalf("merged chrome trace invalid: %v", err)
	}
	for _, want := range []string{`"node n1"`, `"node n2"`, `"node n3"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("merged chrome trace lacks track %s", want)
		}
	}
}

// TestClusterGoldenFingerprints extends the determinism goldens to cluster
// mode: every scenario expressible through the job API, run through a 3-node
// cluster with trace propagation AND metrics federation active, must produce
// the exact fingerprint recorded in testdata/determinism_golden.json —
// distributed observability is observation-only down to the last byte.
func TestClusterGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped with -short")
	}
	data, err := os.ReadFile("../../testdata/determinism_golden.json")
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}

	nodes := obsCluster(t, false, nil, "n1", "n2", "n3")
	n1 := nodes["n1"]

	cases := []struct {
		name string
		req  server.JobRequest
	}{
		{"pair-SB-SD", server.JobRequest{Kernels: []string{"SB", "SD"}, Cycles: 120_000, Seed: 1}},
		{"pair-VA-CT-uneven", server.JobRequest{Kernels: []string{"VA", "CT"}, Alloc: []int{6, 10}, Cycles: 120_000, Seed: 3}},
		{"quad-SB-SD-CT-QR", server.JobRequest{Kernels: []string{"SB", "SD", "CT", "QR"}, Cycles: 120_000, Seed: 7}},
		{"pair-VA-CT-dasefair", server.JobRequest{Kernels: []string{"VA", "CT"}, Cycles: 160_000, Seed: 5, Policy: "fair"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, code := postJobTo(t, n1.ts.URL, c.req); code != http.StatusAccepted {
				t.Fatalf("submit: status %d", code)
			}
			// Exercise federation mid-run: scraping the cluster view must not
			// perturb the simulation.
			if st, _ := httpGet(t, n1.ts.URL+"/v1/cluster/metrics"); st != http.StatusOK {
				t.Fatalf("federation scrape during run: status %d", st)
			}
			v := awaitDoneByRequest(t, nodes, c.req, 300*time.Second)
			sum := sha256.Sum256(simJSON(t, v))
			want, ok := golden[c.name]
			if !ok {
				t.Fatalf("no golden fingerprint for %q", c.name)
			}
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("cluster-mode fingerprint mismatch: got %s want %s\ntracing and federation must be observation-only", got, want)
			}
		})
	}
}

// TestClusterObservabilityEndpointsShort covers the federation and trace
// endpoints without running a single simulation, so it stays in the -short
// suite: a booted cluster heartbeats, which is enough for scatter-gather,
// per-node labeling, RPC latency observation, and the trace ring's HTTP
// surface.
func TestClusterObservabilityEndpointsShort(t *testing.T) {
	nodes := obsCluster(t, false, nil, "n1", "n2")
	n1 := nodes["n1"]

	// Heartbeats populate the RPC latency histogram on their own.
	eventually(t, 30*time.Second, "heartbeat RPC latency observed", func() bool {
		for _, f := range n1.srv.MetricsRegistry().Snapshot() {
			if f.Name == "dased_cluster_rpc_latency_seconds" {
				for _, p := range f.Points {
					if p.Count > 0 {
						return true
					}
				}
			}
		}
		return false
	})

	st, data := httpGet(t, n1.ts.URL+"/v1/cluster/metrics")
	if st != http.StatusOK || !strings.Contains(string(data), "dased_cluster_rpc_latency_seconds") {
		t.Fatalf("merged scrape: status %d", st)
	}
	st, data = httpGet(t, n1.ts.URL+"/v1/cluster/metrics?by=node&format=json")
	if st != http.StatusOK {
		t.Fatalf("json scrape: status %d", st)
	}
	var frame struct {
		Nodes []string `json:"nodes"`
	}
	if err := json.Unmarshal(data, &frame); err != nil || len(frame.Nodes) != 2 {
		t.Fatalf("json frame nodes = %v (err %v), want both members", frame.Nodes, err)
	}
	if st, _ := httpGet(t, n1.ts.URL+"/v1/cluster/metrics?format=yaml"); st != http.StatusBadRequest {
		t.Errorf("unknown metrics format: status %d, want 400", st)
	}

	// The cluster-layer trace ring serves both formats; heartbeat RPCs have
	// already landed in it.
	st, data = httpGet(t, n1.ts.URL+"/cluster/v1/trace?format=ndjson")
	if st != http.StatusOK {
		t.Fatalf("ndjson trace: status %d", st)
	}
	events, err := telemetry.ReadNDJSONStrict(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("cluster trace schema-invalid: %v", err)
	}
	sawRPC := false
	for _, e := range events {
		if e.Kind == telemetry.KindClusterRPC && e.Node == "n1" {
			sawRPC = true
		}
	}
	if !sawRPC {
		t.Error("no cluster.rpc events in the ring despite heartbeats")
	}
	st, data = httpGet(t, n1.ts.URL+"/cluster/v1/trace")
	if st != http.StatusOK {
		t.Fatalf("chrome trace: status %d", st)
	}
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if st, _ := httpGet(t, n1.ts.URL+"/cluster/v1/trace?format=xml"); st != http.StatusBadRequest {
		t.Errorf("unknown trace format: status %d, want 400", st)
	}
}

// TestClusterTraceDisabledShort pins the degraded surface: without
// TraceEvents the cluster trace endpoint 404s but federation still works.
func TestClusterTraceDisabledShort(t *testing.T) {
	nodes := startCluster(t, false, nil, "n1", "n2")
	n1 := nodes["n1"]
	if st, _ := httpGet(t, n1.ts.URL+"/cluster/v1/trace"); st != http.StatusNotFound {
		t.Errorf("trace endpoint without tracer: status %d, want 404", st)
	}
	if st, _ := httpGet(t, n1.ts.URL+"/v1/cluster/metrics"); st != http.StatusOK {
		t.Errorf("federation without tracer: status %d, want 200", st)
	}
}
