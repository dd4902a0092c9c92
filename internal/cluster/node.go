package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dasesim/internal/server"
	"dasesim/internal/telemetry"
)

// Options configures one cluster node.
type Options struct {
	// Self is this node's ID; it must equal the server's NodeID and appear
	// in Peers.
	Self string
	// Peers maps every cluster node ID (including Self) to its base URL,
	// e.g. {"n1": "http://10.0.0.1:8080", ...}. The same map is passed to
	// every node; the ring is built from its keys.
	Peers map[string]string
	// HeartbeatInterval is the push-heartbeat period (default 1s).
	// SuspectAfter and DeadAfter default to 3x and 8x the interval.
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	DeadAfter         time.Duration
	// StealThreshold is the victim queue depth above which an idle node
	// steals (default 4).
	StealThreshold int
	// JournalDir is the shared directory holding every node's journal as
	// <id>.wal. Empty disables journal hand-off (dead peers' queued jobs
	// are only re-run when their clients resubmit).
	JournalDir string
	// RPCTimeout bounds intra-cluster calls (default 5s).
	RPCTimeout time.Duration
	Logger     *slog.Logger
	// TraceEvents enables cluster-layer event tracing with a ring retaining
	// the most recent N events: one cluster.rpc span per intra-cluster call
	// and one job.routed event per forwarded or stolen job, served at
	// GET /cluster/v1/trace. 0 disables tracing (the default). Tracing is
	// observation-only: routing, results and cache keys are unchanged.
	TraceEvents int
}

// Node wires a local server into the cluster: it owns the ring, the
// membership view, the heartbeat and steal loops, and the routing HTTP
// surface that wraps the server's API.
type Node struct {
	srv  *server.Server
	opts Options
	ring *Ring
	mem  *Membership
	tr   *transport
	m    *metrics
	log  *slog.Logger
	// tracer records cluster-layer events when TraceEvents > 0 (nil-safe
	// otherwise); spans mints this node's RPC and routing span IDs.
	tracer *telemetry.Tracer
	spans  *telemetry.SpanSource

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	seq uint64 // heartbeat sequence number
}

// New builds a node around srv. The server must have been created with
// NodeID = opts.Self so its job IDs carry the routing prefix.
func New(srv *server.Server, opts Options) (*Node, error) {
	if opts.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	if srv.NodeID() != opts.Self {
		return nil, fmt.Errorf("cluster: server NodeID %q != Self %q", srv.NodeID(), opts.Self)
	}
	if _, ok := opts.Peers[opts.Self]; !ok {
		return nil, fmt.Errorf("cluster: Peers must include Self %q", opts.Self)
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = time.Second
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 3 * opts.HeartbeatInterval
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 8 * opts.HeartbeatInterval
	}
	if opts.StealThreshold <= 0 {
		opts.StealThreshold = 4
	}
	if opts.RPCTimeout <= 0 {
		opts.RPCTimeout = 5 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ids := make([]string, 0, len(opts.Peers))
	for id := range opts.Peers {
		ids = append(ids, id)
	}
	ring, err := NewRing(ids)
	if err != nil {
		return nil, err
	}
	others := make([]string, 0, len(ids)-1)
	for _, id := range ids {
		if id != opts.Self {
			others = append(others, id)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		srv:    srv,
		opts:   opts,
		ring:   ring,
		mem:    NewMembership(opts.Self, others, opts.SuspectAfter, opts.DeadAfter),
		tr:     newTransport(opts.Self, 0), // per-call context deadlines, not a client-wide one
		m:      newMetrics(srv.MetricsRegistry()),
		log:    opts.Logger.With("node", opts.Self),
		ctx:    ctx,
		cancel: cancel,
	}
	if opts.TraceEvents > 0 {
		n.tracer = telemetry.New(opts.TraceEvents)
	}
	// The span-ID source is seeded with FNV-1a over "cluster/<self>":
	// reproducible, and distinct from the co-located server's
	// NodeID-derived seed, so the two span sources in one process never
	// mint colliding IDs.
	seed := uint64(14695981039346656037)
	for _, b := range []byte("cluster/" + opts.Self) {
		seed = (seed ^ uint64(b)) * 1099511628211
	}
	n.spans = telemetry.NewSpanSource(seed)
	n.mem.OnDead(n.onPeerDead)
	n.mem.OnAlive(n.onPeerAlive)
	srv.AddReadinessCheck("cluster-quorum", func() error {
		if !n.mem.QuorumOK() {
			return fmt.Errorf("not in majority partition")
		}
		return nil
	})
	return n, nil
}

// Membership exposes the node's liveness view (read-only use).
func (n *Node) Membership() *Membership { return n.mem }

// Ring exposes the node's routing ring (read-only use).
func (n *Node) Ring() *Ring { return n.ring }

// Start launches the heartbeat/failure-detector loop. Call after the
// server's Start.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.heartbeatLoop()
}

// Stop halts the loops; it does not touch the wrapped server.
func (n *Node) Stop() {
	n.cancel()
	n.wg.Wait()
}

func (n *Node) peerURL(id string) string { return n.opts.Peers[id] }

// rpc is the instrumented intra-cluster call path: it mints a child span of
// parent (propagated to the receiver as trace headers), measures round-trip
// latency into dased_cluster_rpc_latency_seconds{method}, and — when tracing
// is on — records one cluster.rpc event. The event's CacheHit field doubles
// as the success flag; Job carries the peer ID. Latency children are
// pre-resolved and Emit is allocation-free, so instrumentation adds no
// allocations to the RPC hot path.
func (n *Node) rpc(ctx context.Context, method, to, httpMethod, url string, body []byte, parent telemetry.SpanContext) (int, []byte, error) {
	span := n.spans.Child(parent)
	start := time.Now()
	st, data, err := n.tr.roundTrip(ctx, to, httpMethod, url, body, span)
	elapsed := time.Since(start)
	if h := n.m.rpcLatency[method]; h != nil {
		h.Observe(elapsed.Seconds())
	}
	if n.tracer != nil {
		e := telemetry.Event{
			Kind: telemetry.KindClusterRPC, Wall: start.UnixNano(),
			Dur: elapsed.Nanoseconds(), App: -1, SM: -1,
			Job: to, Note: method, CacheHit: err == nil,
			Node: n.opts.Self,
		}
		e.SetSpan(span)
		n.tracer.Emit(e)
	}
	return st, data, err
}

// emitRouted records a job.routed event: jobID was placed on peer on behalf
// of the given span's trace.
func (n *Node) emitRouted(jobID, peer string, sc telemetry.SpanContext) {
	if n.tracer == nil {
		return
	}
	e := telemetry.Event{
		Kind: telemetry.KindJobRouted, Wall: time.Now().UnixNano(),
		App: -1, SM: -1, Job: jobID, Note: peer, Node: n.opts.Self,
	}
	e.SetSpan(sc)
	n.tracer.Emit(e)
}

// heartbeatLoop pushes heartbeats to every peer each interval, then advances
// the failure detector and, when idle, tries to steal work.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
		}
		n.sendHeartbeats()
		n.mem.Tick()
		n.m.observePeers(n.mem.Snapshot())
		n.maybeSteal()
	}
}

// heartbeatBody is the payload of POST /cluster/v1/heartbeat.
type heartbeatBody struct {
	From     string `json:"from"`
	Seq      uint64 `json:"seq"`
	QueueLen int    `json:"queue_len"`
	Ready    bool   `json:"ready"`
}

func (n *Node) sendHeartbeats() {
	n.mu.Lock()
	// The first heartbeat after a (re)start carries seq 0, which Observe
	// always applies: a restarted node must not be ignored until it outruns
	// the sequence number its previous incarnation reached.
	hb := heartbeatBody{
		From:     n.opts.Self,
		Seq:      n.seq,
		QueueLen: n.srv.QueueLen(),
		Ready:    n.srv.Ready() == nil,
	}
	n.seq++
	n.mu.Unlock()
	body, _ := json.Marshal(hb)
	var wg sync.WaitGroup
	for _, id := range n.ring.Nodes() {
		if id == n.opts.Self {
			continue
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(n.ctx, n.opts.RPCTimeout)
			defer cancel()
			st, _, err := n.rpc(ctx, rpcHeartbeat, id, http.MethodPost,
				n.peerURL(id)+"/cluster/v1/heartbeat", body, telemetry.SpanContext{})
			if err != nil || st != http.StatusOK {
				n.m.heartbeatsFail.Inc()
				return
			}
			n.m.heartbeatsSent.Inc()
		}(id)
	}
	wg.Wait()
}

// maybeSteal pulls one queued job from the busiest saturated peer when this
// node is idle — cold shards stay warm instead of idling while a hot shard
// backs up.
func (n *Node) maybeSteal() {
	if n.srv.QueueLen() > 0 || n.srv.Ready() != nil {
		return
	}
	victim, _, ok := n.mem.Busiest(n.opts.StealThreshold)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(n.ctx, n.opts.RPCTimeout)
	defer cancel()
	body, _ := json.Marshal(map[string]string{"thief": n.opts.Self})
	st, data, err := n.rpc(ctx, rpcSteal, victim, http.MethodPost,
		n.peerURL(victim)+"/cluster/v1/steal", body, telemetry.SpanContext{})
	if err != nil || st != http.StatusOK {
		return
	}
	var out struct {
		OK      bool              `json:"ok"`
		ID      string            `json:"id"`
		Request server.JobRequest `json:"request"`
		TraceID string            `json:"trace_id,omitempty"`
		SpanID  string            `json:"span_id,omitempty"`
	}
	if json.Unmarshal(data, &out) != nil || !out.OK {
		return
	}
	// The steal response carries the victim job's span; submitting under it
	// keeps the stolen copy on the original trace, so dasetrace reconstructs
	// submit-on-victim → stolen-by-us as one timeline.
	var parent telemetry.SpanContext
	parent.TraceID, _ = telemetry.ParseSpanID(out.TraceID)
	parent.ParentID, _ = telemetry.ParseSpanID(out.SpanID)
	view, err := n.srv.SubmitWithSpan(out.Request, parent)
	if err != nil {
		n.log.Warn("stolen job dropped on resubmit", "victim", victim, "origin", out.ID, "err", err)
		return
	}
	n.m.steals.Inc()
	n.emitRouted(view.ID, n.opts.Self, parent)
	n.log.Info("stole job", "victim", victim, "origin", out.ID)
}

// Handler returns the cluster-aware HTTP API: routing wrappers over the job
// endpoints plus the intra-cluster RPCs, with every other path (health,
// metrics, kernels, estimation, traces) falling through to the server's own
// handler.
func (n *Node) Handler() http.Handler {
	inner := n.srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/heartbeat", n.handleHeartbeat)
	mux.HandleFunc("POST /cluster/v1/steal", n.handleSteal)
	mux.Handle("POST /v1/jobs", n.hopAware(inner, n.handleSubmit))
	mux.HandleFunc("POST /v1/batch", n.handleBatch)
	mux.Handle("GET /v1/jobs", n.hopAware(inner, n.handleList))
	mux.Handle("GET /v1/jobs/{id}", n.hopAware(inner, n.handleJobProxy(inner)))
	mux.Handle("DELETE /v1/jobs/{id}", n.hopAware(inner, n.handleJobProxy(inner)))
	mux.HandleFunc("GET /cluster/v1/trace", n.handleClusterTrace)
	mux.Handle("/", inner)
	return mux
}

// hopAware serves already-routed requests (HopHeader set) with the local
// server and first-contact requests with the routing handler.
func (n *Node) hopAware(local http.Handler, routed http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HopHeader) != "" {
			local.ServeHTTP(w, r)
			return
		}
		routed(w, r)
	})
}

func (n *Node) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		n.log.Error("write json failed", "err", err)
	}
}

func errBody(path, msg string) map[string]string {
	return map[string]string{"error": msg, "path": path}
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb heartbeatBody
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		n.writeJSON(w, http.StatusBadRequest, errBody(r.URL.Path, "bad heartbeat: "+err.Error()))
		return
	}
	n.mem.Observe(hb.From, hb.Seq, hb.QueueLen, hb.Ready)
	n.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	var in struct {
		Thief string `json:"thief"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil || in.Thief == "" {
		n.writeJSON(w, http.StatusBadRequest, errBody(r.URL.Path, "bad steal request"))
		return
	}
	req, id, ok := n.srv.TrySteal(in.Thief)
	if !ok {
		n.writeJSON(w, http.StatusOK, map[string]any{"ok": false})
		return
	}
	n.log.Info("job stolen", "thief", in.Thief, "id", id)
	out := map[string]any{"ok": true, "id": id, "request": req}
	if span, ok := n.srv.JobSpan(id); ok && span.Valid() {
		// Hand the thief the forwarded job's trace context so its re-run
		// stays on the submitting client's timeline.
		out["trace_id"] = telemetry.FormatSpanID(span.TraceID)
		out["span_id"] = telemetry.FormatSpanID(span.SpanID)
	}
	n.writeJSON(w, http.StatusOK, out)
}

// handleSubmit is the cluster-aware POST /v1/jobs: hash the request's content
// address, walk the preference list, fall back past saturated or unreachable
// nodes.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req server.JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		n.writeJSON(w, http.StatusBadRequest, errBody(r.URL.Path, "bad request body: "+err.Error()))
		return
	}
	// Refused as the single-node endpoint refuses it.
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		n.writeJSON(w, http.StatusBadRequest, errBody(r.URL.Path, fmt.Sprintf("bad request body: trailing data after offset %d", end)))
		return
	}
	status, payload := n.routeSubmit(r.Context(), req, telemetry.SpanFromHeaders(r.Header))
	n.writeJSON(w, status, payload)
}

// routeSubmit places one job on the cluster and returns the HTTP status and
// response payload. Refusals that mean "try elsewhere" (queue full, shed,
// draining, transport error, injected partition) advance down the preference
// list; validation errors return immediately — every node would reject them
// identically. A valid parent span keeps the placed job on the caller's
// trace: the routing step gets its own span, the executing node's job span
// becomes its child (directly for local placement, via propagated headers
// for forwards).
func (n *Node) routeSubmit(ctx context.Context, req server.JobRequest, parent telemetry.SpanContext) (int, any) {
	key, err := n.srv.RouteKey(req)
	if err != nil {
		return http.StatusBadRequest, errBody("/v1/jobs", err.Error())
	}
	route := n.spans.Child(parent)
	body, _ := json.Marshal(req)
	lastStatus, lastPayload := 0, any(nil)
	for i, id := range n.ring.Preference(key) {
		if i > 0 {
			n.m.fallbacks.Inc()
		}
		if id == n.opts.Self {
			view, err := n.srv.SubmitWithSpan(req, route)
			if err == nil {
				return http.StatusAccepted, view
			}
			st := server.SubmitStatus(err)
			if st != http.StatusTooManyRequests && st != http.StatusServiceUnavailable {
				return st, errBody("/v1/jobs", err.Error())
			}
			lastStatus, lastPayload = st, errBody("/v1/jobs", err.Error())
			continue
		}
		if n.mem.State(id) == StateDead {
			continue
		}
		rctx, cancel := context.WithTimeout(ctx, n.opts.RPCTimeout)
		st, data, err := n.rpc(rctx, rpcForward, id, http.MethodPost, n.peerURL(id)+"/v1/jobs", body, route)
		cancel()
		if err != nil {
			lastStatus = http.StatusServiceUnavailable
			lastPayload = errBody("/v1/jobs", fmt.Sprintf("node %s unreachable: %v", id, err))
			continue
		}
		switch st {
		case http.StatusAccepted:
			var view server.JobView
			if json.Unmarshal(data, &view) != nil {
				return http.StatusBadGateway, errBody("/v1/jobs", "bad response from "+id)
			}
			n.m.forwards.Inc()
			n.emitRouted(view.ID, id, route)
			return st, view
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			lastStatus, lastPayload = st, json.RawMessage(data)
			continue
		default:
			return st, json.RawMessage(data)
		}
	}
	if lastStatus != 0 {
		return lastStatus, lastPayload
	}
	return http.StatusServiceUnavailable, errBody("/v1/jobs", "no cluster node available")
}

// handleBatch is POST /v1/batch: a JSON array of job requests scattered
// concurrently across their owning nodes; the response preserves order, one
// entry per request.
func (n *Node) handleBatch(w http.ResponseWriter, r *http.Request) {
	var reqs []server.JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reqs); err != nil {
		n.writeJSON(w, http.StatusBadRequest, errBody(r.URL.Path, "bad request body (want a JSON array): "+err.Error()))
		return
	}
	if len(reqs) == 0 {
		n.writeJSON(w, http.StatusBadRequest, errBody(r.URL.Path, "empty batch"))
		return
	}
	type entry struct {
		Status int             `json:"status"`
		Job    *server.JobView `json:"job,omitempty"`
		Error  string          `json:"error,omitempty"`
	}
	entries := make([]entry, len(reqs))
	parent := telemetry.SpanFromHeaders(r.Header)
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req server.JobRequest) {
			defer wg.Done()
			status, payload := n.routeSubmit(r.Context(), req, parent)
			e := entry{Status: status}
			switch p := payload.(type) {
			case server.JobView:
				e.Job = &p
			case map[string]string:
				e.Error = p["error"]
			case json.RawMessage:
				var m struct {
					Error string `json:"error"`
				}
				_ = json.Unmarshal(p, &m)
				e.Error = m.Error
			}
			entries[i] = e
		}(i, req)
	}
	wg.Wait()
	accepted := 0
	for _, e := range entries {
		if e.Status == http.StatusAccepted {
			accepted++
		}
	}
	n.writeJSON(w, http.StatusOK, map[string]any{
		"accepted": accepted,
		"total":    len(reqs),
		"jobs":     entries,
	})
}

// handleList is the cluster-aware GET /v1/jobs: gather every reachable
// node's views and merge them by submission time.
func (n *Node) handleList(w http.ResponseWriter, r *http.Request) {
	views := n.srv.Views()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, id := range n.ring.Nodes() {
		if id == n.opts.Self || n.mem.State(id) == StateDead {
			continue
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), n.opts.RPCTimeout)
			defer cancel()
			st, data, err := n.rpc(ctx, rpcList, id, http.MethodGet, n.peerURL(id)+"/v1/jobs", nil, telemetry.SpanContext{})
			if err != nil || st != http.StatusOK {
				return
			}
			var out struct {
				Jobs []server.JobView `json:"jobs"`
			}
			if json.Unmarshal(data, &out) != nil {
				return
			}
			mu.Lock()
			views = append(views, out.Jobs...)
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	sort.Slice(views, func(i, j int) bool {
		if !views[i].SubmittedAt.Equal(views[j].SubmittedAt) {
			return views[i].SubmittedAt.Before(views[j].SubmittedAt)
		}
		return views[i].ID < views[j].ID
	})
	n.writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// handleJobProxy routes GET/DELETE /v1/jobs/{id} to the node named by the
// ID's prefix ("n2-job-7" lives on n2). Unknown prefixes and unreachable
// owners fall back to the local server — after a hand-off the job may well
// live here under a new ID, and a plain 404 is the honest answer otherwise.
func (n *Node) handleJobProxy(local http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		owner := ownerOfJobID(id)
		if owner == "" || owner == n.opts.Self || n.peerURL(owner) == "" ||
			n.mem.State(owner) == StateDead {
			local.ServeHTTP(w, r)
			return
		}
		timeout := n.opts.RPCTimeout
		if ms, err := strconv.Atoi(r.URL.Query().Get("wait_ms")); err == nil && ms > 0 {
			timeout += time.Duration(ms) * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		url := n.peerURL(owner) + "/v1/jobs/" + id
		if q := r.URL.RawQuery; q != "" {
			url += "?" + q
		}
		st, data, err := n.rpc(ctx, rpcProxy, owner, r.Method, url, nil, telemetry.SpanFromHeaders(r.Header))
		if err != nil {
			local.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(st)
		w.Write(data)
	}
}

// handleClusterTrace is GET /cluster/v1/trace: this node's cluster-layer
// events (RPC spans, routed jobs) as Chrome trace-event JSON, or NDJSON with
// ?format=ndjson for merging across nodes with cmd/dasetrace.
func (n *Node) handleClusterTrace(w http.ResponseWriter, r *http.Request) {
	if n.tracer == nil {
		n.writeJSON(w, http.StatusNotFound,
			errBody(r.URL.Path, "cluster tracing disabled; start the node with trace events enabled"))
		return
	}
	events := n.tracer.Events()
	var err error
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		err = telemetry.WriteChromeTrace(w, events)
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		err = telemetry.WriteNDJSON(w, events)
	default:
		n.writeJSON(w, http.StatusBadRequest,
			errBody(r.URL.Path, "unknown format "+strconv.Quote(format)+" (chrome | ndjson)"))
		return
	}
	if err != nil {
		n.log.Error("write cluster trace failed", "err", err)
	}
}

// ownerOfJobID extracts the node prefix from a cluster job ID, "" when the
// ID carries none (single-node era or foreign format).
func ownerOfJobID(id string) string {
	i := strings.Index(id, "-job-")
	if i <= 0 {
		return ""
	}
	return id[:i]
}
