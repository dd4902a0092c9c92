package cluster

import "dasesim/internal/telemetry"

// RPC method labels: fixed strings shared by the dased_cluster_rpc_latency
// histogram, per-RPC trace events, and tests.
const (
	rpcHeartbeat = "heartbeat"
	rpcSteal     = "steal"
	rpcForward   = "forward"
	rpcList      = "list"
	rpcProxy     = "proxy"
	rpcReconcile = "reconcile"
)

// rpcMethods is every method label, for pre-resolving histogram children.
var rpcMethods = []string{
	rpcHeartbeat, rpcSteal, rpcForward, rpcList, rpcProxy, rpcReconcile,
}

// metrics are the cluster layer's observability signals, registered on the
// co-located server's registry so one /metrics scrape covers both layers.
type metrics struct {
	peerAlive      *telemetry.GaugeVec // 1 alive, 0.5 suspect, 0 dead, per peer
	peerQueue      *telemetry.GaugeVec // last heartbeat queue depth, per peer
	heartbeatsSent *telemetry.Counter
	heartbeatsFail *telemetry.Counter
	forwards       *telemetry.Counter // submissions routed to a peer
	fallbacks      *telemetry.Counter // preference-list retries after a refusal
	handoffs       *telemetry.Counter // dead-peer journals claimed for hand-off
	handoffJobs    *telemetry.Counter // non-terminal jobs resubmitted from a claimed journal
	handoffSeeded  *telemetry.Counter // finished results seeded from a claimed journal
	steals         *telemetry.Counter // jobs pulled from a saturated peer
	dupResults     *telemetry.Counter // reconciliation: results both sides computed

	partitionSuspected *telemetry.Gauge // peers currently suspect or dead

	// rpcLatency children are resolved once at construction: With locks and
	// allocates, Observe on a resolved child is lock- and allocation-free,
	// keeping the per-RPC hot path allocation-clean.
	rpcLatency map[string]*telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry) *metrics {
	m := &metrics{
		peerAlive: reg.GaugeVec("dased_cluster_peer_alive",
			"Peer liveness: 1 alive, 0.5 suspect, 0 dead.", "peer"),
		peerQueue: reg.GaugeVec("dased_cluster_peer_queue_depth",
			"Peer queue depth at its last heartbeat.", "peer"),
		heartbeatsSent: reg.Counter("dased_cluster_heartbeats_sent_total",
			"Heartbeats successfully delivered to peers."),
		heartbeatsFail: reg.Counter("dased_cluster_heartbeats_failed_total",
			"Heartbeat sends that errored (includes injected partitions)."),
		forwards: reg.Counter("dased_cluster_forwards_total",
			"Submissions routed to the owning peer."),
		fallbacks: reg.Counter("dased_cluster_fallbacks_total",
			"Submissions retried on the next preference after a refusal."),
		handoffs: reg.Counter("dased_cluster_handoffs_total",
			"Dead-peer journals claimed for hand-off."),
		handoffJobs: reg.Counter("dased_cluster_handoff_jobs_total",
			"Non-terminal jobs resubmitted from a dead peer's claimed journal."),
		handoffSeeded: reg.Counter("dased_cluster_handoff_results_seeded_total",
			"Finished results recovered from a dead peer's claimed journal."),
		steals: reg.Counter("dased_cluster_steals_total",
			"Queued jobs pulled from a saturated peer."),
		dupResults: reg.Counter("dased_cluster_duplicate_results_total",
			"Results found already present during partition-heal reconciliation."),
		partitionSuspected: reg.Gauge("dased_cluster_partition_suspected",
			"Peers this node currently considers suspect or dead."),
	}
	lat := reg.HistogramVec("dased_cluster_rpc_latency_seconds",
		"Round-trip latency of intra-cluster RPCs by method.",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5},
		"method")
	m.rpcLatency = make(map[string]*telemetry.Histogram, len(rpcMethods))
	for _, method := range rpcMethods {
		m.rpcLatency[method] = lat.With(method)
	}
	return m
}

// observePeers mirrors the membership snapshot into the per-peer gauges and
// the partition-suspicion gauge.
func (m *metrics) observePeers(infos []PeerInfo) {
	suspected := 0
	for _, p := range infos {
		v := 0.0
		switch p.State {
		case StateAlive:
			v = 1
		case StateSuspect:
			v = 0.5
			suspected++
		default:
			suspected++
		}
		m.peerAlive.With(p.ID).Set(v)
		m.peerQueue.With(p.ID).Set(float64(p.QueueLen))
	}
	m.partitionSuspected.Set(float64(suspected))
}
