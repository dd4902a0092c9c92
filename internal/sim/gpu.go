// Package sim wires the SM cores, interconnect, L2 slices and DRAM
// controllers into a whole-GPU cycle-level simulator with spatial
// multitasking: each SM is owned by one application at a time, ownership
// changes happen by draining (paper §7), and per-interval hardware-counter
// snapshots feed the slowdown estimators and scheduling policies.
package sim

import (
	"context"
	"fmt"

	"dasesim/internal/config"
	"dasesim/internal/faults"
	"dasesim/internal/icnt"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
	"dasesim/internal/smcore"
	"dasesim/internal/telemetry"
)

// GPU is one simulated device executing a set of applications.
type GPU struct {
	cfg  config.Config
	amap memreq.AddrMap

	apps  []*App
	disps []*dispatcher
	sms   []*smcore.SM
	parts []*partition
	ic    *icnt.ICNT
	pool  *memreq.Pool // request recycler shared by SMs and partitions

	cycle uint64

	// desired[i] is the app that should own SM i; when it differs from the
	// current owner the SM is draining toward reassignment.
	desired []memreq.AppID

	// interval state
	intervalStart uint64
	window        []appWindow // per-app interval accumulators

	// priority-epoch state (MISE/ASM sampling). When enabled, each
	// interval is divided into len(apps) equal slices; during slice k all
	// controllers give app k's requests highest priority.
	priorityEpochs bool
	prioServedBase []uint64 // served count at the start of the current slice
	prioServed     []uint64 // served during own priority slice, this interval
	prioCycles     []uint64
	curPrio        memreq.AppID

	// IntervalHook, when set, runs at every interval boundary with the
	// fresh snapshot, before counters reset. Policies and estimators hang
	// off this.
	IntervalHook func(g *GPU, snap *IntervalSnapshot)

	snapshots []IntervalSnapshot

	// snapRetention caps len(snapshots); 0 means unlimited. When the cap is
	// hit the oldest snapshot's run-total counters are folded into evicted
	// before it is dropped, so FinishRun's aggregates stay exact.
	snapRetention int
	evicted       snapshotAgg

	// checks is non-nil under WithInvariantChecks; step sweeps it
	// periodically and panics with the first *InvariantViolation.
	checks *invariantChecker

	// tracer is non-nil under WithTracer; the engine emits interval
	// snapshots and SM drain/assign transitions into it. Observation-only:
	// results are identical with tracing on, and when off each site pays one
	// nil check.
	tracer *telemetry.Tracer
}

// snapshotAgg accumulates the run-total counters of snapshots evicted under
// a retention cap.
type snapshotAgg struct {
	busCycles, busWasted, busIdle uint64
	served, data                  []uint64
	rowHits, rowMisses            []uint64
}

// appWindow accumulates SM-side stats for one app over the current interval.
type appWindow struct {
	issued       uint64
	smCycles     uint64
	activeCycles uint64
	stallUnits   float64
	memInsts     uint64
}

// Option configures a GPU.
type Option func(*GPU)

// WithPriorityEpochs enables the rotating highest-priority sampling epochs
// that the MISE and ASM estimators require.
func WithPriorityEpochs() Option {
	return func(g *GPU) { g.priorityEpochs = true }
}

// WithSnapshotRetention caps how many interval snapshots the GPU keeps in
// memory (n <= 0 means unlimited, the default). Long-running simulations
// otherwise grow their snapshot slice without bound; with a cap, the oldest
// snapshots are dropped after their run-total counters (bus decomposition,
// served requests, row hits) are folded into accumulators, so FinishRun's
// whole-run aggregates are unaffected — only Result.Snapshots is truncated
// to the most recent n intervals.
func WithSnapshotRetention(n int) Option {
	return func(g *GPU) { g.snapRetention = n }
}

// WithTracer attaches an event tracer. The engine emits one interval event
// per app at every interval boundary plus SM drain/assign transitions during
// repartitioning. Tracing is observation-only — simulation results are
// byte-identical with it enabled — and a nil tracer is the same as not
// passing the option.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(g *GPU) { g.tracer = tr }
}

// Tracer returns the tracer attached with WithTracer, nil when tracing is
// disabled. Policies use this to emit into the same stream as the engine.
func (g *GPU) Tracer() *telemetry.Tracer { return g.tracer }

// maxApps is the most applications one GPU runs: each DRAM controller keeps
// its per-app bank masks in arrays of this size (dram.NewController panics
// beyond it), and app 16 of a larger workload used to go unsampled, reading
// BLP 0 into DASE.
const maxApps = 16

// New builds a GPU running the given application profiles with alloc[i] SMs
// initially assigned to app i, at most maxApps of them. The sum of alloc must
// not exceed the SM count; SMs are assigned contiguously in order.
func New(cfg config.Config, profiles []kernels.Profile, alloc []int, seed uint64, opts ...Option) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("sim: no applications")
	}
	if len(profiles) > maxApps {
		return nil, fmt.Errorf("sim: %d applications, at most %d are supported", len(profiles), maxApps)
	}
	if len(alloc) != len(profiles) {
		return nil, fmt.Errorf("sim: %d allocations for %d apps", len(alloc), len(profiles))
	}
	total := 0
	for i, n := range alloc {
		if n < 0 {
			return nil, fmt.Errorf("sim: app %d allocated %d SMs", i, n)
		}
		total += n
	}
	if total > cfg.NumSMs {
		return nil, fmt.Errorf("sim: allocation %v exceeds %d SMs", alloc, cfg.NumSMs)
	}
	if total == 0 {
		return nil, fmt.Errorf("sim: allocation %v leaves the GPU empty", alloc)
	}
	for i := range profiles {
		if err := profiles[i].Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if profiles[i].CoalescedLines > 0 && kernels.LineBytes != cfg.L1.LineBytes {
			return nil, fmt.Errorf("sim: kernel line size %d != cache line size %d", kernels.LineBytes, cfg.L1.LineBytes)
		}
	}

	amap := memreq.NewAddrMap(cfg.L2.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
	g := &GPU{
		cfg:            cfg,
		amap:           amap,
		ic:             icnt.New(cfg.ICNT, cfg.NumSMs, cfg.NumMCs, cfg.L2.LineBytes),
		pool:           &memreq.Pool{},
		desired:        make([]memreq.AppID, cfg.NumSMs),
		window:         make([]appWindow, len(profiles)),
		prioServedBase: make([]uint64, len(profiles)),
		prioServed:     make([]uint64, len(profiles)),
		prioCycles:     make([]uint64, len(profiles)),
		curPrio:        memreq.InvalidApp,
	}
	g.evicted.served = make([]uint64, len(profiles))
	g.evicted.data = make([]uint64, len(profiles))
	g.evicted.rowHits = make([]uint64, len(profiles))
	g.evicted.rowMisses = make([]uint64, len(profiles))
	for _, o := range opts {
		o(g)
	}
	for i, p := range profiles {
		app := newApp(memreq.AppID(i), p, seed)
		g.apps = append(g.apps, app)
		g.disps = append(g.disps, &dispatcher{app})
	}
	for i := 0; i < cfg.NumSMs; i++ {
		g.sms = append(g.sms, smcore.New(i, cfg, amap, g.pool))
		g.desired[i] = memreq.InvalidApp
	}
	for i := 0; i < cfg.NumMCs; i++ {
		g.parts = append(g.parts, newPartition(i, cfg, amap, len(profiles), g.pool))
	}
	smi := 0
	for a, n := range alloc {
		for j := 0; j < n; j++ {
			g.desired[smi] = memreq.AppID(a)
			g.sms[smi].Assign(memreq.AppID(a), g.disps[a])
			smi++
		}
	}
	return g, nil
}

// Config returns the GPU's configuration.
func (g *GPU) Config() config.Config { return g.cfg }

// Cycle returns the current simulation cycle.
func (g *GPU) Cycle() uint64 { return g.cycle }

// Apps returns the simulated applications (live pointers).
func (g *GPU) Apps() []*App { return g.apps }

// Allocation returns how many SMs each app currently owns (desired
// ownership; SMs mid-drain count toward their future owner).
func (g *GPU) Allocation() []int {
	out := make([]int, len(g.apps))
	for _, d := range g.desired {
		if d != memreq.InvalidApp {
			out[d]++
		}
	}
	return out
}

// Owners returns the current owner app of every SM (InvalidApp for idle
// SMs still draining toward a new owner).
func (g *GPU) Owners() []memreq.AppID {
	out := make([]memreq.AppID, len(g.sms))
	for i, sm := range g.sms {
		out[i] = sm.Owner()
	}
	return out
}

// SetAllocation requests a new SM partition: alloc[i] SMs for app i. SMs
// whose ownership changes are drained and reassigned when idle. An app may
// be allocated zero SMs (it stalls until a later reallocation — temporal
// multitasking uses this), but at least one app must get SMs. Returns an
// error if the allocation is infeasible.
func (g *GPU) SetAllocation(alloc []int) error {
	if len(alloc) != len(g.apps) {
		return fmt.Errorf("sim: %d allocations for %d apps", len(alloc), len(g.apps))
	}
	total := 0
	for i, n := range alloc {
		if n < 0 {
			return fmt.Errorf("sim: app %d allocated %d SMs", i, n)
		}
		total += n
	}
	if total > g.cfg.NumSMs {
		return fmt.Errorf("sim: allocation %v exceeds %d SMs", alloc, g.cfg.NumSMs)
	}
	if total == 0 {
		return fmt.Errorf("sim: allocation %v leaves the GPU empty", alloc)
	}

	// Keep as many currently-owned SMs as possible; mark the rest.
	have := make([]int, len(g.apps))
	for i := range g.desired {
		g.desired[i] = memreq.InvalidApp
	}
	// First pass: let each app keep up to alloc[a] of its current SMs.
	for i, sm := range g.sms {
		a := sm.Owner()
		if a != memreq.InvalidApp && have[a] < alloc[a] {
			g.desired[i] = a
			have[a]++
		}
	}
	// Second pass: hand remaining SMs to apps still short.
	for i := range g.sms {
		if g.desired[i] != memreq.InvalidApp {
			continue
		}
		for a := range alloc {
			if have[a] < alloc[a] {
				g.desired[i] = memreq.AppID(a)
				have[a]++
				break
			}
		}
	}
	g.applyDesired()
	return nil
}

// applyDesired drains SMs whose desired owner differs and reassigns the
// idle ones.
func (g *GPU) applyDesired() {
	for i, sm := range g.sms {
		want := g.desired[i]
		if sm.Owner() == want {
			if sm.Draining() && want != memreq.InvalidApp {
				// A previous reassignment was cancelled; resume dispatch.
				sm.Undrain()
			}
			continue
		}
		if !sm.Idle() {
			// Drain() is re-issued every cycle while the SM empties; trace
			// only the transition into draining.
			if g.tracer != nil && !sm.Draining() {
				g.tracer.Emit(telemetry.Event{
					Kind: telemetry.KindSMDrain, Cycle: g.cycle,
					SM: int32(i), App: int32(sm.Owner()),
				})
			}
			sm.Drain()
			continue
		}
		g.flushSM(sm)
		if want == memreq.InvalidApp {
			continue
		}
		sm.Assign(want, g.disps[want])
		if g.tracer != nil {
			g.tracer.Emit(telemetry.Event{
				Kind: telemetry.KindSMAssign, Cycle: g.cycle,
				SM: int32(i), App: int32(want),
			})
		}
	}
}

// flushSM folds an SM's stats into its owner's window and whole-run
// counters, then clears them.
func (g *GPU) flushSM(sm *smcore.SM) {
	a := sm.Owner()
	if a == memreq.InvalidApp {
		sm.ResetStats()
		return
	}
	st := sm.Stats()
	w := &g.window[a]
	w.issued += st.Issued
	w.smCycles += st.Cycles
	w.activeCycles += st.ActiveCycles
	w.stallUnits += st.StallUnits
	w.memInsts += st.MemInsts

	app := g.apps[a]
	app.Instructions += st.Issued
	app.SMCycles += st.Cycles
	app.ActiveCycles += st.ActiveCycles
	app.StallUnits += st.StallUnits
	app.MemInsts += st.MemInsts
	app.L1Hits += st.LoadsL1Hit
	app.L1Misses += st.LoadsL1Miss
	app.MemLat.Merge(st.MemLat)
	app.LatHist.Merge(&st.LatHist)
	sm.ResetStats()
}

// Run advances the simulation by n cycles.
func (g *GPU) Run(n uint64) {
	end := g.cycle + n
	for g.cycle < end {
		g.step()
	}
}

// ctxCheckCycles is the granularity at which RunContext polls its context: a
// balance between cancellation latency (a few thousand cycles simulate in
// well under a millisecond) and per-cycle overhead.
const ctxCheckCycles = 4096

// RunContext advances the simulation by n cycles, polling ctx between
// coarse chunks so per-job timeouts and cancellation take effect promptly.
// A simulation stopped early is left in a consistent state (FinishRun still
// works), but callers normally discard it.
func (g *GPU) RunContext(ctx context.Context, n uint64) error {
	end := g.cycle + n
	for g.cycle < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := faults.FireCtx(ctx, "sim.step"); err != nil {
			return err
		}
		chunk := end - g.cycle
		if chunk > ctxCheckCycles {
			chunk = ctxCheckCycles
		}
		for i := uint64(0); i < chunk; i++ {
			g.step()
		}
	}
	return nil
}

// step advances exactly one core cycle.
func (g *GPU) step() {
	now := g.cycle

	if g.priorityEpochs {
		g.updatePriorityEpoch(now)
	}

	// 1. SM compute/issue.
	for _, sm := range g.sms {
		sm.Cycle(now)
	}

	// 2. SM outboxes into the interconnect.
	for _, sm := range g.sms {
		g.injectSM(sm, now)
	}

	// 3. Partitions: pop arrived requests into L2, run DRAM, emit replies.
	for pi, p := range g.parts {
		g.partitionInput(p, pi, now)
		g.partitionOutput(p, pi, now)
	}

	// 4. Replies into SMs.
	for si, sm := range g.sms {
		g.deliverReplies(si, sm, now)
	}

	g.finishCycle()
}

// injectSM moves requests from one SM's outbox into the interconnect (up to
// 2 injections per SM per cycle; the crossbar's per-port serialization does
// fine-grained pacing). Injection order across SMs is determinism-critical:
// it decides which request wins the last slot of a filling partition queue.
func (g *GPU) injectSM(sm *smcore.SM, now uint64) {
	if sm.OutboxLen() == 0 {
		return
	}
	for k := 0; k < 2; k++ {
		r := sm.PeekOutbox()
		if r == nil {
			break
		}
		part := g.amap.Partition(r.Addr)
		if !g.ic.CanSendToMem(part) {
			break
		}
		g.ic.SendToMem(part, sm.PopOutbox(), now)
	}
}

// partitionInput advances one partition: replays a blocked request, pops
// arrived requests into the L2, and cycles the DRAM controller.
func (g *GPU) partitionInput(p *partition, pi int, now uint64) {
	// Replay a previously blocked request first.
	if p.replay != nil {
		if p.access(p.replay, now) {
			p.replay = nil
		}
	}
	for k := 0; k < p.l2PerCycle && p.replay == nil && !p.backlogged(); k++ {
		r := g.ic.RecvAtMem(pi, now)
		if r == nil {
			break
		}
		if !p.access(r, now) {
			p.replay = r
		}
	}
	p.cycle(now)
}

// partitionOutput injects one partition's ready replies into the
// interconnect (up to 4 per cycle). Like injectSM, the order across
// partitions is determinism-critical (reply-queue fullness coupling).
func (g *GPU) partitionOutput(p *partition, pi int, now uint64) {
	for k := 0; k < 4; k++ {
		r := p.popReply(now)
		if r == nil {
			break
		}
		if !g.ic.CanSendToSM(r.SM) {
			// Put it back; try next cycle.
			p.replies.PushBack(timedReq{r, now})
			break
		}
		g.ic.SendToSM(pi, r, now)
	}
}

// deliverReplies drains one SM's inbound crossbar FIFO into the SM.
func (g *GPU) deliverReplies(si int, sm *smcore.SM, now uint64) {
	if g.ic.InFlightToSM(si) == 0 {
		return
	}
	for {
		r := g.ic.RecvAtSM(si, now)
		if r == nil {
			break
		}
		sm.DeliverReply(r, now)
	}
}

// finishCycle runs the tail of a step: reassignment progress, the cycle
// increment, interval snapshots, and the debug sweep.
func (g *GPU) finishCycle() {
	// 5. Progress any pending reassignment.
	g.applyDesired()

	g.cycle++

	// 6. Interval boundary.
	if g.cycle-g.intervalStart >= g.cfg.IntervalCycles {
		snap := g.takeSnapshot()
		g.addSnapshot(snap)
		if g.tracer != nil {
			for a := range snap.Apps {
				ai := &snap.Apps[a]
				g.tracer.Emit(telemetry.Event{
					Kind: telemetry.KindInterval, Cycle: g.cycle,
					App: int32(a), SM: -1,
					Alpha: ai.Alpha, BLP: ai.BLP,
					Served: ai.Served, SMs: int32(ai.SMs),
				})
			}
		}
		if g.IntervalHook != nil {
			g.IntervalHook(g, snap)
		}
		g.resetInterval()
	}

	// 7. Debug validation sweep (WithInvariantChecks); one nil check when off.
	if g.checks != nil && g.cycle%checkEveryCycles == 0 {
		if v := g.checks.sweep(); v != nil {
			panic(v)
		}
	}
}

// addSnapshot appends a snapshot, enforcing the retention cap by folding the
// oldest snapshots' run-total counters into the evicted accumulators before
// dropping them.
func (g *GPU) addSnapshot(snap *IntervalSnapshot) {
	g.snapshots = append(g.snapshots, *snap)
	if g.snapRetention <= 0 {
		return
	}
	for len(g.snapshots) > g.snapRetention {
		s := &g.snapshots[0]
		g.evicted.busCycles += s.BusCycles
		g.evicted.busWasted += s.BusWasted
		g.evicted.busIdle += s.BusIdle
		for i := range s.Apps {
			g.evicted.served[i] += s.Apps[i].Served
			g.evicted.data[i] += s.Apps[i].DataCycles
			g.evicted.rowHits[i] += s.Apps[i].RowHits
			g.evicted.rowMisses[i] += s.Apps[i].RowMisses
		}
		copy(g.snapshots, g.snapshots[1:])
		g.snapshots = g.snapshots[:len(g.snapshots)-1]
	}
}

// updatePriorityEpoch rotates the controller priority app across equal
// slices of the interval and records per-app served counts during their own
// slice.
func (g *GPU) updatePriorityEpoch(now uint64) {
	sliceLen := g.cfg.IntervalCycles / uint64(len(g.apps))
	if sliceLen == 0 {
		return
	}
	pos := now - g.intervalStart
	idx := int(pos / sliceLen)
	if idx >= len(g.apps) {
		idx = len(g.apps) - 1
	}
	want := memreq.AppID(idx)
	if want == g.curPrio {
		if g.curPrio != memreq.InvalidApp {
			g.prioCycles[g.curPrio]++
		}
		return
	}
	// Close the previous slice.
	if g.curPrio != memreq.InvalidApp {
		g.prioServed[g.curPrio] += g.servedTotal(g.curPrio) - g.prioServedBase[g.curPrio]
	}
	g.curPrio = want
	g.prioServedBase[want] = g.servedTotal(want)
	g.prioCycles[want]++
	for _, p := range g.parts {
		p.mc.SetPriorityApp(want)
	}
}

// servedTotal sums an app's served-request counters across partitions for
// the current interval.
func (g *GPU) servedTotal(a memreq.AppID) uint64 {
	var s uint64
	for _, p := range g.parts {
		s += p.mc.Counters(a).Served
	}
	return s
}

// resetInterval clears all interval counters after a snapshot.
func (g *GPU) resetInterval() {
	for _, sm := range g.sms {
		g.flushSM(sm)
	}
	for i := range g.window {
		g.window[i] = appWindow{}
	}
	for _, p := range g.parts {
		p.resetIntervalCounters()
	}
	for i := range g.prioServed {
		g.prioServed[i] = 0
		g.prioCycles[i] = 0
	}
	if g.curPrio != memreq.InvalidApp {
		g.prioServedBase[g.curPrio] = 0
	}
	g.curPrio = memreq.InvalidApp
	g.intervalStart = g.cycle
}

// Snapshots returns all interval snapshots taken so far.
func (g *GPU) Snapshots() []IntervalSnapshot { return g.snapshots }
