package sim

import (
	"fmt"

	"dasesim/internal/memreq"
)

// InvariantViolation is the error the runtime invariant checker reports (and
// that step panics with, so a checked simulation fails loudly at — or within
// checkEveryCycles of — the cycle the engine's state first went wrong).
type InvariantViolation struct {
	Cycle  uint64
	Check  string // which invariant family failed (conservation, mshr-agreement, ...)
	Detail string
}

func (e *InvariantViolation) Error() string {
	return fmt.Sprintf("sim: invariant %q violated at cycle %d: %s", e.Check, e.Cycle, e.Detail)
}

// checkEveryCycles is the sweep cadence of the runtime checker. The checked
// invariants are state properties, not event properties — a violation
// persists until swept — so checking every cycle would buy only tighter
// localization at ~64x the cost.
const checkEveryCycles = 64

// WithInvariantChecks enables the runtime validation layer: the GPU's request
// pool switches into hygiene-checking mode (double-Put, writes after Put,
// non-zeroed reuse), and every checkEveryCycles cycles the GPU sweeps
//
//   - request conservation: every live request appears in exactly one
//     transport location (SM outbox, crossbar, partition replay/toMC/replies,
//     DRAM), except an L2-miss head which is also first in its MSHR waiter
//     list, and merged waiters which appear in no transport at all;
//   - pool hygiene: no live request is simultaneously owned by the pool, and
//     every pooled request is still fully zeroed;
//   - MSHR agreement: per-slot waiter lists match the L2's allocated slots,
//     tags, and merge counts (and the SMs' lists match their L1s), and each
//     cache's index/slot/free-stack views agree internally;
//   - structural ring and queue contracts across SMs, crossbar and DRAM,
//     including the incremental per-bank counters against naive recounts;
//   - monotonic counters: cycle, crossbar traffic, refreshes and retired
//     instructions never decrease.
//
// Checking never changes simulation results (it reads engine state and only
// alters which pooled pointers are recycled when); it exists to turn silent
// state corruption into an immediate *InvariantViolation panic. Off by
// default and free when off — the hot path pays one nil check per step.
func WithInvariantChecks() Option {
	return func(g *GPU) {
		g.pool.EnableChecks()
		g.checks = &invariantChecker{g: g, seen: make(map[*memreq.Request]int, 1024)}
	}
}

// InvariantChecksEnabled reports whether the GPU was built with
// WithInvariantChecks.
func (g *GPU) InvariantChecksEnabled() bool { return g.checks != nil }

// CheckInvariantsNow runs the full invariant sweep immediately and returns
// the first violation found, or nil. It requires WithInvariantChecks.
func (g *GPU) CheckInvariantsNow() error {
	if g.checks == nil {
		return fmt.Errorf("sim: invariant checks not enabled (build the GPU with WithInvariantChecks)")
	}
	if err := g.checks.sweep(); err != nil {
		return err
	}
	return nil
}

// invariantChecker holds the sweep's reusable scratch state and the baselines
// for the monotonic-counter checks.
type invariantChecker struct {
	g    *GPU
	seen map[*memreq.Request]int // transport sightings per live request

	lastCycle   uint64
	lastReqSent uint64
	lastRepSent uint64
	lastRefresh []uint64
	lastInstr   []uint64
}

// sweep runs every check once and returns the first violation.
func (c *invariantChecker) sweep() *InvariantViolation {
	g := c.g
	fail := func(check, format string, args ...any) *InvariantViolation {
		return &InvariantViolation{Cycle: g.cycle, Check: check, Detail: fmt.Sprintf(format, args...)}
	}

	// Conservation, pass 1: count each live request's transport sightings.
	clear(c.seen)
	where, nilWhere, dupDetail := "", "", ""
	visit := func(r *memreq.Request) {
		if r == nil {
			if nilWhere == "" {
				nilWhere = where
			}
			return
		}
		c.seen[r]++
		if c.seen[r] == 2 && dupDetail == "" {
			dupDetail = fmt.Sprintf("request %v sighted twice (second time in %s)", r, where)
		}
	}
	for _, sm := range g.sms {
		where = fmt.Sprintf("SM %d outbox", sm.ID)
		sm.ForEachOutbox(visit)
	}
	where = "crossbar"
	g.ic.ForEachInFlight(visit)
	for pi, p := range g.parts {
		where = fmt.Sprintf("partition %d replay", pi)
		if p.replay != nil {
			visit(p.replay)
		}
		where = fmt.Sprintf("partition %d toMC", pi)
		for _, r := range p.toMC {
			visit(r)
		}
		where = fmt.Sprintf("partition %d replies", pi)
		p.replies.Do(func(e timedReq) { visit(e.req) })
		where = fmt.Sprintf("partition %d dram", pi)
		p.mc.ForEachInFlight(visit)
	}
	if nilWhere != "" {
		return fail("conservation", "nil request in %s", nilWhere)
	}
	if dupDetail != "" {
		return fail("conservation", "%s", dupDetail)
	}

	// Conservation, pass 2: L2 MSHR waiter lists. The head of each list is
	// the request forwarded to DRAM (exactly one transport sighting); merged
	// waiters live only in the list (zero sightings). Both agree with the L2's
	// slot/tag/merge-count view.
	for pi, p := range g.parts {
		nonEmpty := 0
		for slot, ws := range p.waiters {
			if len(ws) == 0 {
				continue
			}
			nonEmpty++
			head := ws[0]
			if n := c.seen[head]; n != 1 {
				return fail("conservation", "partition %d MSHR slot %d head %v sighted in %d transport locations, want 1", pi, slot, head, n)
			}
			addr, ok := p.l2.MSHRAddr(slot)
			if !ok {
				return fail("mshr-agreement", "partition %d: %d waiters on unallocated L2 MSHR slot %d", pi, len(ws), slot)
			}
			if addr != head.Addr {
				return fail("mshr-agreement", "partition %d: L2 MSHR slot %d tracks %#x but head waiter is %v", pi, slot, addr, head)
			}
			if want := p.l2.MSHRMerged(slot) + 1; want != len(ws) {
				return fail("mshr-agreement", "partition %d: L2 MSHR slot %d merge count says %d waiters, list holds %d", pi, slot, want, len(ws))
			}
			for _, w := range ws[1:] {
				if n := c.seen[w]; n != 0 {
					return fail("conservation", "partition %d MSHR slot %d merged waiter %v also sighted in %d transport locations", pi, slot, w, n)
				}
				if w.Addr != head.Addr {
					return fail("mshr-agreement", "partition %d MSHR slot %d merges %v onto head %v (different lines)", pi, slot, w, head)
				}
				if g.pool.Owned(w) {
					return fail("pool-hygiene", "partition %d MSHR slot %d waiter %v is owned by the pool (use-after-Put, gen %d)", pi, slot, w, g.pool.Generation(w))
				}
			}
		}
		if inUse := p.l2.MSHRsInUse(); nonEmpty != inUse {
			return fail("mshr-agreement", "partition %d: %d allocated L2 MSHRs but %d non-empty waiter lists", pi, inUse, nonEmpty)
		}
	}

	// Pool hygiene: live requests are never pool-owned, pooled requests are
	// still zeroed, and every request is well-formed.
	for r := range c.seen {
		if g.pool.Owned(r) {
			return fail("pool-hygiene", "live request %v is owned by the pool (use-after-Put, gen %d)", r, g.pool.Generation(r))
		}
		if int(r.App) < 0 || int(r.App) >= len(g.apps) {
			return fail("conservation", "live request %v has app outside [0,%d)", r, len(g.apps))
		}
		if r.SM < -1 || r.SM >= len(g.sms) {
			return fail("conservation", "live request %v has SM outside [-1,%d)", r, len(g.sms))
		}
		if r.SM == -1 && r.Kind != memreq.Write {
			return fail("conservation", "internal (SM -1) request %v is not a write-back", r)
		}
	}
	if err := g.pool.CheckInvariants(); err != nil {
		return fail("pool-hygiene", "%v", err)
	}

	// Component-local structural checks.
	for _, sm := range g.sms {
		if err := sm.CheckInvariants(); err != nil {
			return fail("structure", "%v", err)
		}
	}
	if err := g.ic.CheckInvariants(); err != nil {
		return fail("structure", "%v", err)
	}
	for pi, p := range g.parts {
		if err := p.l2.CheckInvariants(); err != nil {
			return fail("structure", "partition %d: %v", pi, err)
		}
		if err := p.mc.CheckInvariants(); err != nil {
			return fail("structure", "partition %d: %v", pi, err)
		}
		if err := p.replies.CheckInvariants(func(e timedReq) bool { return e.req == nil && e.ready == 0 }); err != nil {
			return fail("structure", "partition %d replies: %v", pi, err)
		}
	}

	// Monotonic counters.
	if c.lastRefresh == nil {
		c.lastRefresh = make([]uint64, len(g.parts))
		c.lastInstr = make([]uint64, len(g.apps))
	}
	if g.cycle < c.lastCycle {
		return fail("monotonic", "cycle went backward: %d after %d", g.cycle, c.lastCycle)
	}
	c.lastCycle = g.cycle
	if g.ic.ReqSent < c.lastReqSent || g.ic.RepSent < c.lastRepSent {
		return fail("monotonic", "crossbar traffic went backward: req %d after %d, rep %d after %d",
			g.ic.ReqSent, c.lastReqSent, g.ic.RepSent, c.lastRepSent)
	}
	c.lastReqSent, c.lastRepSent = g.ic.ReqSent, g.ic.RepSent
	for pi, p := range g.parts {
		if p.mc.Refreshes < c.lastRefresh[pi] {
			return fail("monotonic", "partition %d refresh count went backward: %d after %d", pi, p.mc.Refreshes, c.lastRefresh[pi])
		}
		c.lastRefresh[pi] = p.mc.Refreshes
	}
	for i, app := range g.apps {
		if app.Instructions < c.lastInstr[i] {
			return fail("monotonic", "app %d retired instructions went backward: %d after %d", i, app.Instructions, c.lastInstr[i])
		}
		c.lastInstr[i] = app.Instructions
	}
	return nil
}
