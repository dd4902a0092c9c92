package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"

	"dasesim/internal/journal"
	"dasesim/internal/server"
	"dasesim/internal/telemetry"
)

// onPeerDead fires when the failure detector declares a peer dead. Every
// survivor races to claim the dead node's journal by atomic rename — exactly
// one wins, because the source path exists once — and the winner replays it:
// finished results are seeded into the local cache (and from there reachable
// by any client re-asking for the same work), non-terminal jobs are
// resubmitted through normal routing, which skips the dead node.
//
// Recovery is at-least-once by construction: a falsely-suspected node may
// still be running its copy of a handed-off job. That is safe — simulations
// are deterministic functions of their content address, so both executions
// produce byte-identical results and the caches deduplicate by key.
func (n *Node) onPeerDead(peer string) {
	n.log.Warn("peer dead", "peer", peer)
	if n.opts.JournalDir == "" {
		return
	}
	src := filepath.Join(n.opts.JournalDir, peer+".wal")
	claimed := src + "." + n.opts.Self + ".handoff"
	if err := os.Rename(src, claimed); err != nil {
		// Lost the claim race, or the peer never journaled — either way
		// another survivor (or nobody) is responsible.
		return
	}
	n.m.handoffs.Inc()
	n.log.Info("claimed journal", "peer", peer, "path", claimed)
	recs, err := journal.Load(claimed)
	if err != nil {
		n.log.Error("claimed journal unreadable", "peer", peer, "err", err)
		return
	}
	jobs := server.ExtractJournalJobs(recs)
	seeded, resubmitted := 0, 0
	for _, j := range jobs {
		if j.Terminal {
			if j.Status == server.StatusDone && n.srv.SeedResult(j.Request, j.Result) {
				n.m.handoffSeeded.Inc()
				seeded++
			}
			continue
		}
		// The dead node accepted this job with a 202 and never finished
		// it; honoring that acknowledgment is the whole point of hand-off.
		n.m.handoffJobs.Inc()
		resubmitted++
		// Resubmission continues the job's original trace: the journaled
		// span becomes the parent, so dasetrace shows submit-on-dead-node
		// and rerun-after-hand-off as one cross-node timeline.
		if status, payload := n.routeSubmit(n.ctx, j.Request, j.Span); status != http.StatusAccepted {
			body, _ := json.Marshal(payload)
			n.log.Error("hand-off resubmit refused", "peer", peer, "origin", j.ID,
				"status", status, "body", string(body))
		}
	}
	n.log.Info("hand-off complete", "peer", peer,
		"jobs", len(jobs), "seeded", seeded, "resubmitted", resubmitted)
}

// onPeerAlive fires when a dead peer is heard from again — a restart or a
// healed partition. Both sides may have computed the same content addresses
// in the meantime; reconciliation pulls the peer's finished results and
// seeds any we miss, counting the overlap. It runs off the heartbeat
// handler's goroutine so the peer's first contact is not delayed.
func (n *Node) onPeerAlive(peer string) {
	n.log.Info("peer alive again", "peer", peer)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.reconcile(peer)
	}()
}

// reconcile merges one returned peer's finished work into the local cache.
func (n *Node) reconcile(peer string) {
	ctx, cancel := context.WithTimeout(n.ctx, n.opts.RPCTimeout)
	defer cancel()
	st, data, err := n.rpc(ctx, rpcReconcile, peer, http.MethodGet, n.peerURL(peer)+"/v1/jobs", nil, telemetry.SpanContext{})
	if err != nil || st != http.StatusOK {
		n.log.Warn("reconcile fetch failed", "peer", peer, "status", st, "err", err)
		return
	}
	var out struct {
		Jobs []server.JobView `json:"jobs"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		n.log.Warn("reconcile decode failed", "peer", peer, "err", err)
		return
	}
	seeded, dups := 0, 0
	for _, v := range out.Jobs {
		if v.Status != server.StatusDone || v.Result == nil || v.Result.Sim == nil {
			continue
		}
		if n.srv.SeedResult(v.Request, v.Result) {
			seeded++
		} else {
			// Already present locally: both partition sides ran this
			// content address. Duplicate effort, but — determinism —
			// identical bytes.
			n.m.dupResults.Inc()
			dups++
		}
	}
	n.log.Info("reconciled", "peer", peer, "seeded", seeded, "duplicates", dups)
}
