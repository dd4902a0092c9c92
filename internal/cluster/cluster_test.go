package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/faults"
	"dasesim/internal/kernels"
	"dasesim/internal/server"
	"dasesim/internal/sim"
)

// testCycles keeps the suite fast: one partial interval per simulation.
const testCycles = 20_000

// swapHandler lets a fixed httptest URL change its backing handler, so a
// "process" can be killed and restarted at the same address — which is what
// the static peer map requires.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// deadHandler aborts the connection without a response, which is what
// dialing a dead process feels like to the client.
var deadHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	panic(http.ErrAbortHandler)
})

type testNode struct {
	id        string
	dir       string // shared journal directory ("" disables hand-off)
	peers     map[string]string
	sw        *swapHandler
	ts        *httptest.Server
	srv       *server.Server
	node      *Node
	opts      Options
	srvAdjust func(*server.Options) // optional server-option tweaks before boot
	alive     bool
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func (tn *testNode) serverOpts() server.Options {
	opts := server.Options{
		NodeID:        tn.id,
		Workers:       1,
		QueueDepth:    16,
		JobTimeout:    5 * time.Minute,
		DefaultCycles: testCycles,
		MaxCycles:     2_000_000_000,
		Logger:        quietLogger(),
	}
	if tn.dir != "" {
		opts.JournalPath = filepath.Join(tn.dir, tn.id+".wal")
	}
	if tn.srvAdjust != nil {
		tn.srvAdjust(&opts)
	}
	return opts
}

func (tn *testNode) boot(t *testing.T) {
	t.Helper()
	srv, err := server.New(tn.serverOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	node, err := New(srv, tn.opts)
	if err != nil {
		t.Fatal(err)
	}
	tn.srv, tn.node, tn.alive = srv, node, true
	tn.sw.set(node.Handler())
	node.Start()
	t.Cleanup(func() { tn.stop(t) })
}

// stop is the graceful teardown; a no-op after kill.
func (tn *testNode) stop(t *testing.T) {
	if !tn.alive {
		return
	}
	tn.alive = false
	tn.node.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = tn.srv.Shutdown(ctx)
}

// kill emulates a process crash: the journal stops committing, the address
// stops answering, and in-flight connections are severed.
func (tn *testNode) kill() {
	if !tn.alive {
		return
	}
	tn.alive = false
	tn.sw.set(deadHandler)
	tn.node.Stop()
	tn.srv.Kill()
	tn.ts.CloseClientConnections()
}

// startCluster boots one node per ID against a shared journal directory
// (withJournal=false disables hand-off for tests that keep "dead" nodes
// running). adjust tweaks each node's cluster options before boot.
func startCluster(t *testing.T, withJournal bool, adjust func(*Options), ids ...string) map[string]*testNode {
	t.Helper()
	return startClusterOpts(t, withJournal, adjust, nil, ids...)
}

// startClusterOpts is startCluster with server-option tweaks too: the
// observability tests turn on tracing in both layers.
func startClusterOpts(t *testing.T, withJournal bool, adjust func(*Options), srvAdjust func(*server.Options), ids ...string) map[string]*testNode {
	t.Helper()
	dir := ""
	if withJournal {
		dir = t.TempDir()
	}
	peers := map[string]string{}
	nodes := map[string]*testNode{}
	for _, id := range ids {
		sw := &swapHandler{h: deadHandler}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		peers[id] = ts.URL
		nodes[id] = &testNode{id: id, dir: dir, peers: peers, sw: sw, ts: ts, srvAdjust: srvAdjust}
	}
	for _, id := range ids {
		tn := nodes[id]
		tn.opts = Options{
			Self:              id,
			Peers:             peers,
			HeartbeatInterval: 25 * time.Millisecond,
			SuspectAfter:      150 * time.Millisecond,
			DeadAfter:         400 * time.Millisecond,
			StealThreshold:    1 << 30, // stealing off unless a test opts in
			JournalDir:        dir,
			RPCTimeout:        5 * time.Second,
			Logger:            quietLogger(),
		}
		if adjust != nil {
			adjust(&tn.opts)
		}
		tn.boot(t)
	}
	return nodes
}

// pinRequest searches seeds (from *seed upward) for an SB job whose routing
// preference satisfies pred, advancing *seed past the hit so successive
// calls return distinct content addresses.
func pinRequest(t *testing.T, tn *testNode, cycles uint64, seed *uint64, pred func(prefs []string) bool) server.JobRequest {
	t.Helper()
	for ; *seed < 1_000_000; *seed++ {
		req := server.JobRequest{Kernels: []string{"SB"}, Cycles: cycles, Seed: *seed}
		key, err := tn.srv.RouteKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if pred(tn.node.ring.Preference(key)) {
			*seed++
			return req
		}
	}
	t.Fatal("no seed matches the routing predicate")
	return server.JobRequest{}
}

func ownedBy(id string) func([]string) bool {
	return func(prefs []string) bool { return prefs[0] == id }
}

func postJobTo(t *testing.T, baseURL string, req server.JobRequest) (server.JobView, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var v server.JobView
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &v)
	return v, resp.StatusCode
}

func sameRequest(a, b server.JobRequest) bool {
	if a.Cycles != b.Cycles || a.Seed != b.Seed || len(a.Kernels) != len(b.Kernels) {
		return false
	}
	for i := range a.Kernels {
		if a.Kernels[i] != b.Kernels[i] {
			return false
		}
	}
	return true
}

// awaitDoneByRequest polls the live nodes until a done job with this request
// appears somewhere; handed-off and stolen jobs carry fresh IDs, so the
// request fingerprint is the only stable identity.
func awaitDoneByRequest(t *testing.T, nodes map[string]*testNode, req server.JobRequest, timeout time.Duration) server.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, tn := range nodes {
			if !tn.alive {
				continue
			}
			for _, v := range tn.srv.Views() {
				if sameRequest(v.Request, req) && v.Status == server.StatusDone {
					return v
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job {SB cycles=%d seed=%d} never completed on any live node", req.Cycles, req.Seed)
	return server.JobView{}
}

// directSimJSON computes the single-node reference result for an SB shared
// job: the exact bytes an uninterrupted, uncluttered run would return.
func directSimJSON(t *testing.T, req server.JobRequest) []byte {
	t.Helper()
	cfg := config.Default()
	prof, ok := kernels.ByAbbr("SB")
	if !ok {
		t.Fatal("SB not in catalogue")
	}
	res, err := sim.RunShared(cfg, []kernels.Profile{prof}, sim.EvenAllocation(cfg.NumSMs, 1), req.Cycles, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func simJSON(t *testing.T, v server.JobView) []byte {
	t.Helper()
	if v.Result == nil || v.Result.Sim == nil {
		t.Fatalf("job %s has no result (status=%s error=%q)", v.ID, v.Status, v.Error)
	}
	data, err := json.Marshal(v.Result.Sim)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func eventually(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(15 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterKillHandOffRestart is the kill-and-restart fault test: jobs
// accepted (202) and journaled by one node survive its death — a survivor
// claims the journal, reseeds the finished result, re-runs the in-flight and
// queued jobs — and the restarted node rejoins cleanly. Results are
// byte-identical to a direct single-node simulation throughout.
func TestClusterKillHandOffRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault test runs simulations")
	}
	nodes := startCluster(t, true, nil, "n1", "n2", "n3")
	n1, victim, n3 := nodes["n1"], nodes["n2"], nodes["n3"]
	seed := uint64(1)

	// A job owned by the victim, finished before the kill: its result must
	// outlive the node via the claimed journal.
	doneReq := pinRequest(t, n1, testCycles, &seed, ownedBy("n2"))
	v, code := postJobTo(t, n1.ts.URL, doneReq)
	if code != http.StatusAccepted {
		t.Fatalf("submit via n1: status %d", code)
	}
	if ownerOfJobID(v.ID) != "n2" {
		t.Fatalf("job %s not routed to owner n2", v.ID)
	}
	preKill := awaitDoneByRequest(t, nodes, doneReq, 120*time.Second)
	preKillBytes := simJSON(t, preKill)

	// A long job occupies the victim's single worker...
	longReq := pinRequest(t, n1, 300_000, &seed, ownedBy("n2"))
	if _, code := postJobTo(t, victim.ts.URL, longReq); code != http.StatusAccepted {
		t.Fatalf("long job refused: %d", code)
	}
	eventually(t, 60*time.Second, "long job running on victim", func() bool {
		for _, v := range victim.srv.Views() {
			if sameRequest(v.Request, longReq) && v.Status == server.StatusRunning {
				return true
			}
		}
		return false
	})
	// ...so these two stay queued (journaled, never started) at the kill.
	q1 := pinRequest(t, n1, testCycles, &seed, ownedBy("n2"))
	q2 := pinRequest(t, n1, testCycles, &seed, ownedBy("n2"))
	for _, req := range []server.JobRequest{q1, q2} {
		if _, code := postJobTo(t, n1.ts.URL, req); code != http.StatusAccepted {
			t.Fatalf("queued job refused: %d", code)
		}
	}
	if got := victim.srv.QueueLen(); got != 2 {
		t.Fatalf("victim queue depth %d, want 2", got)
	}

	victim.kill()

	// A survivor claims the journal: one rename wins, the finished result is
	// seeded, the three non-terminal jobs (1 running + 2 queued) resubmitted.
	eventually(t, 15*time.Second, "journal hand-off", func() bool {
		return n1.node.m.handoffJobs.Load()+n3.node.m.handoffJobs.Load() == 3 &&
			n1.node.m.handoffSeeded.Load()+n3.node.m.handoffSeeded.Load() == 1
	})
	claims, err := filepath.Glob(filepath.Join(n1.dir, "*.handoff"))
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 1 {
		t.Fatalf("claimed journals %v, want exactly one", claims)
	}

	// No 202-accepted job is lost: every handed-off job completes on a
	// survivor, byte-identical to the single-node reference.
	for _, req := range []server.JobRequest{longReq, q1, q2} {
		v := awaitDoneByRequest(t, nodes, req, 300*time.Second)
		if got, want := simJSON(t, v), directSimJSON(t, req); !bytes.Equal(got, want) {
			t.Fatalf("handed-off job {seed=%d} diverged from the single-node run", req.Seed)
		}
	}
	// The pre-kill finished result is recoverable too: resubmitting the same
	// request returns identical bytes (served from the seeded cache or
	// recomputed — indistinguishable, which is the point).
	if v, code := postJobTo(t, n1.ts.URL, doneReq); code != http.StatusAccepted {
		t.Fatalf("post-kill resubmit: status %d", code)
	} else if ownerOfJobID(v.ID) == "n2" {
		t.Fatalf("post-kill resubmit routed to the dead node (job %s)", v.ID)
	}
	again := awaitDoneByRequest(t, nodes, doneReq, 120*time.Second)
	if !bytes.Equal(simJSON(t, again), preKillBytes) {
		t.Fatal("recovered result diverged from the pre-kill bytes")
	}

	// Restart the victim at the same address (fresh journal: the old one was
	// claimed). Peers must see it alive and route to it again.
	victim.boot(t)
	eventually(t, 15*time.Second, "victim rejoining", func() bool {
		return n1.node.mem.State("n2") == StateAlive && n3.node.mem.State("n2") == StateAlive
	})
	resp, err := http.Get(victim.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted victim /readyz = %d, want 200", resp.StatusCode)
	}
	fresh := pinRequest(t, n1, testCycles, &seed, ownedBy("n2"))
	v, code = postJobTo(t, n1.ts.URL, fresh)
	if code != http.StatusAccepted || ownerOfJobID(v.ID) != "n2" {
		t.Fatalf("post-restart submit: status %d, id %s — routing not restored", code, v.ID)
	}
	final := awaitDoneByRequest(t, nodes, fresh, 120*time.Second)
	if !bytes.Equal(simJSON(t, final), directSimJSON(t, fresh)) {
		t.Fatal("post-restart job diverged from the single-node run")
	}
}

// TestClusterAsymmetricPartition severs exactly one direction of one link
// (n1 can no longer reach n2) and checks the failure detector sees exactly
// that asymmetry, submissions route around the cut without losing a single
// 202, and the partition-heal reconciliation detects the duplicated work —
// idempotent by content address, byte-identical results on both sides.
func TestClusterAsymmetricPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault test runs simulations")
	}
	// No journal dir: nodes here are partitioned, not dead, and a test this
	// precise must not have a survivor "claiming" a living node's journal.
	nodes := startCluster(t, false, nil, "n1", "n2", "n3")
	n1, n2 := nodes["n1"], nodes["n2"]
	seed := uint64(1)

	// The job must prefer [n2, n1, ...]: owned by the unreachable node with
	// the submitter itself as first fallback, so the partition forces n1 to
	// run a copy locally.
	req := pinRequest(t, n1, testCycles, &seed, func(prefs []string) bool {
		return prefs[0] == "n2" && prefs[1] == "n1"
	})

	reg := faults.New(42)
	reg.Arm(faults.Spec{Point: "cluster.dial", Label: "n1->n2", Mode: faults.ModePartition})
	faults.Activate(reg)
	defer faults.Deactivate()

	// n2 stops hearing n1 (push heartbeats travel the cut direction) and
	// declares it dead; n1 still hears n2 and keeps it alive. Exactly
	// one-way blindness — the definition of an asymmetric partition.
	eventually(t, 15*time.Second, "asymmetric suspicion", func() bool {
		return n2.node.mem.State("n1") == StateDead && n1.node.mem.State("n2") == StateAlive
	})
	// Everyone still holds a majority (n2+n3, n1+n3), so readiness holds
	// cluster-wide.
	for id, tn := range nodes {
		resp, err := http.Get(tn.ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /readyz = %d during partial partition, want 200", id, resp.StatusCode)
		}
	}

	// Submitting via n1: the forward to owner n2 hits the cut, falls back to
	// n1 itself. Still a 202 — no accepted job lost to the partition.
	v1, code := postJobTo(t, n1.ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit across the cut: status %d", code)
	}
	if ownerOfJobID(v1.ID) != "n1" {
		t.Fatalf("job %s should have fallen back to n1", v1.ID)
	}
	if n1.node.m.fallbacks.Load() == 0 {
		t.Fatal("fallback counter untouched by the rerouted submission")
	}
	// Submitting via n2 directly: it owns the key and runs its own copy.
	v2, code := postJobTo(t, n2.ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit on owner: status %d", code)
	}
	if ownerOfJobID(v2.ID) != "n2" {
		t.Fatalf("job %s should have stayed on n2", v2.ID)
	}
	d1 := awaitDoneByRequest(t, map[string]*testNode{"n1": n1}, req, 120*time.Second)
	d2 := awaitDoneByRequest(t, map[string]*testNode{"n2": n2}, req, 120*time.Second)

	// Both sides computed the same content address: byte-identical to each
	// other and to the single-node reference.
	ref := directSimJSON(t, req)
	if !bytes.Equal(simJSON(t, d1), ref) || !bytes.Equal(simJSON(t, d2), ref) {
		t.Fatal("partition-side results diverged from the single-node run")
	}

	// Heal. n2 hears n1 again, fires reconciliation, and finds n1's copy of
	// the result already present locally: duplicate work detected, zero
	// conflicts possible.
	faults.Deactivate()
	eventually(t, 15*time.Second, "partition heal", func() bool {
		return n2.node.mem.State("n1") == StateAlive
	})
	eventually(t, 15*time.Second, "duplicate-result reconciliation", func() bool {
		return n2.node.m.dupResults.Load() >= 1
	})
}

// TestClusterQuorumLoss isolates n1 from all inbound heartbeats: it sees
// every peer dead, loses quorum, and flips /readyz to 503 while /healthz
// stays 200 (alive, not ready). Healing restores readiness.
func TestClusterQuorumLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault test")
	}
	nodes := startCluster(t, false, nil, "n1", "n2", "n3")
	n1 := nodes["n1"]

	reg := faults.New(7)
	reg.Arm(faults.Spec{Point: "cluster.heartbeat", Label: "n2->n1", Mode: faults.ModePartition})
	reg.Arm(faults.Spec{Point: "cluster.heartbeat", Label: "n3->n1", Mode: faults.ModePartition})
	faults.Activate(reg)
	defer faults.Deactivate()

	eventually(t, 15*time.Second, "n1 losing quorum", func() bool {
		return n1.srv.Ready() != nil
	})
	readyz, err := http.Get(n1.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyz.Body.Close()
	if readyz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("minority /readyz = %d, want 503", readyz.StatusCode)
	}
	healthz, err := http.Get(n1.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthz.Body.Close()
	if healthz.StatusCode != http.StatusOK {
		t.Fatalf("minority /healthz = %d, want 200 (alive, just not ready)", healthz.StatusCode)
	}

	faults.Deactivate()
	eventually(t, 15*time.Second, "quorum restored", func() bool {
		return n1.srv.Ready() == nil
	})
}

// TestClusterWorkStealing saturates one node's queue and checks an idle peer
// pulls jobs over, the victim marks them forwarded (terminal, journaled),
// and every job still completes with correct bytes.
func TestClusterWorkStealing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault test runs simulations")
	}
	nodes := startCluster(t, true, func(o *Options) { o.StealThreshold = 1 }, "n1", "n2")
	n1, n2 := nodes["n1"], nodes["n2"]
	seed := uint64(1)

	// One long job pins n1's single worker; three short jobs pile up behind
	// it, over the steal threshold.
	longReq := pinRequest(t, n1, 300_000, &seed, ownedBy("n1"))
	if _, code := postJobTo(t, n1.ts.URL, longReq); code != http.StatusAccepted {
		t.Fatalf("long job refused: %d", code)
	}
	shorts := make([]server.JobRequest, 3)
	for i := range shorts {
		shorts[i] = pinRequest(t, n1, testCycles, &seed, ownedBy("n1"))
		if _, code := postJobTo(t, n1.ts.URL, shorts[i]); code != http.StatusAccepted {
			t.Fatalf("short job %d refused: %d", i, code)
		}
	}

	eventually(t, 30*time.Second, "n2 stealing work", func() bool {
		return n2.node.m.steals.Load() >= 1
	})
	for _, req := range append(shorts, longReq) {
		v := awaitDoneByRequest(t, nodes, req, 300*time.Second)
		if !bytes.Equal(simJSON(t, v), directSimJSON(t, req)) {
			t.Fatalf("job {seed=%d} diverged after stealing", req.Seed)
		}
	}
	// The victim's ledger shows the forwards: terminal, attributed to the
	// thief, so a victim crash cannot resurrect stolen work.
	forwarded := 0
	for _, v := range n1.srv.Views() {
		if v.Status == server.StatusForwarded {
			forwarded++
			if v.ForwardedTo != "n2" {
				t.Fatalf("forwarded job %s attributes thief %q, want n2", v.ID, v.ForwardedTo)
			}
		}
	}
	if forwarded == 0 {
		t.Fatal("no forwarded job on the victim despite a recorded steal")
	}
}

// TestClusterRoutingRoundTripShort drives the routing surface of a 2-node
// cluster whose servers never start their worker pools: every accepted job
// stays queued, so nothing simulates and the test stays in the -short suite.
// Submissions are placed on their ring owner (locally or by forward), the
// merged list on either node shows both, GET and DELETE by ID are proxied to
// the owner, and a request already carrying the hop header is served locally
// instead of being routed again.
func TestClusterRoutingRoundTripShort(t *testing.T) {
	peers := map[string]string{}
	nodes := map[string]*testNode{}
	for _, id := range []string{"n1", "n2"} {
		sw := &swapHandler{h: deadHandler}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		peers[id] = ts.URL
		nodes[id] = &testNode{id: id, peers: peers, sw: sw, ts: ts}
	}
	for _, tn := range nodes {
		srv, err := server.New(tn.serverOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
		node, err := New(srv, Options{Self: tn.id, Peers: peers, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		tn.srv, tn.node = srv, node
		tn.sw.set(node.Handler())
	}
	n1, n2 := nodes["n1"], nodes["n2"]
	seed := uint64(1)

	local, code := postJobTo(t, n1.ts.URL, pinRequest(t, n1, testCycles, &seed, ownedBy("n1")))
	if code != http.StatusAccepted || local.ID != "n1-job-1" {
		t.Fatalf("local placement: status %d id %q", code, local.ID)
	}
	remote, code := postJobTo(t, n1.ts.URL, pinRequest(t, n1, testCycles, &seed, ownedBy("n2")))
	if code != http.StatusAccepted || remote.ID != "n2-job-1" || remote.Status != server.StatusQueued {
		t.Fatalf("forwarded placement: status %d view %+v", code, remote)
	}
	if got := n1.node.m.forwards.Load(); got != 1 {
		t.Errorf("n1 forwards = %d, want 1", got)
	}

	// Either node lists both jobs, merged in submission order.
	for _, tn := range nodes {
		st, data := httpGet(t, tn.ts.URL+"/v1/jobs")
		var list struct {
			Jobs []server.JobView `json:"jobs"`
		}
		if st != http.StatusOK || json.Unmarshal(data, &list) != nil || len(list.Jobs) != 2 ||
			list.Jobs[0].ID != local.ID || list.Jobs[1].ID != remote.ID {
			t.Fatalf("%s list: status %d body %s", tn.id, st, data)
		}
	}

	// A GET on the non-owner is proxied, query string included; the job
	// never leaves the queue, so the long-poll runs out and answers queued.
	st, data := httpGet(t, n1.ts.URL+"/v1/jobs/"+remote.ID+"?wait_ms=1")
	var view server.JobView
	if st != http.StatusOK || json.Unmarshal(data, &view) != nil || view.ID != remote.ID || view.Status != server.StatusQueued {
		t.Fatalf("proxied GET: status %d body %s", st, data)
	}

	// An already-routed request is answered by the local server: n1 does
	// not hold n2's job. Unknown owners fall back to the local 404 too.
	hop, _ := http.NewRequest(http.MethodGet, n1.ts.URL+"/v1/jobs/"+remote.ID, nil)
	hop.Header.Set(HopHeader, "n2")
	resp, err := http.DefaultClient.Do(hop)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("hop-marked GET on the non-owner: status %d, want 404", resp.StatusCode)
	}
	if st, _ := httpGet(t, n1.ts.URL+"/v1/jobs/n9-job-1"); st != http.StatusNotFound {
		t.Errorf("unknown owner: status %d, want 404", st)
	}

	// A DELETE on the non-owner cancels the job where it lives.
	del, _ := http.NewRequest(http.MethodDelete, n1.ts.URL+"/v1/jobs/"+remote.ID, nil)
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied DELETE: status %d", resp.StatusCode)
	}
	if v, ok := n2.srv.View(remote.ID); !ok || v.Status != server.StatusCanceled {
		t.Errorf("owner's record after proxied DELETE = %+v (found %v), want canceled", v, ok)
	}
	if got := n1.node.m.rpcLatency[rpcProxy].Count(); got != 2 {
		t.Errorf("proxy RPC latency observations = %d, want 2", got)
	}

	// A body with data after the job object is refused before routing.
	resp, err = http.Post(n1.ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kernels":["SB"]} {}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data: status %d, want 400", resp.StatusCode)
	}
}
