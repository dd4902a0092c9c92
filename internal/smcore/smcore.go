// Package smcore models one streaming multiprocessor: resident thread
// blocks, warps with a loose round-robin issue scheduler, a private L1 data
// cache with MSHR merging, memory-request injection with back-pressure, and
// the α (memory-stall-fraction) counter DASE reads (paper Eq. 15).
//
// The timing abstraction: a warp issues at most one instruction per issue
// slot; a compute instruction makes the warp dependent-stall for its
// ComputeLat; a load blocks the warp until all its lines have returned
// (from L1 after HitLatency, or from L2/DRAM via the interconnect); stores
// are fire-and-forget. When no warp can issue and at least one warp is
// waiting on memory, the cycle is a memory-stall cycle.
package smcore

import (
	"fmt"

	"dasesim/internal/cache"
	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
	"dasesim/internal/ring"
	"dasesim/internal/stats"
)

// BlockSource supplies thread blocks of one application to SMs. NextBlock
// returns the warp streams of the next block, or ok=false when no block is
// currently available (kernel fully dispatched). BlockFinished is called
// when every warp of a previously dispatched block has retired.
// WarpsPerBlock exposes the block width so an SM can check residency limits
// before consuming a block; it is a constant of the source, read once when
// the SM is assigned.
type BlockSource interface {
	NextBlock() (warps []*kernels.WarpStream, ok bool)
	BlockFinished()
	WarpsPerBlock() int
}

type warpState uint8

const (
	warpFree warpState = iota
	warpReady
	warpComputeWait
	warpMemWait
	warpBarrierWait
)

const wheelSize = 128 // > L1 hit latency and any ComputeLat

type wheelEntry struct {
	warp int
	kind uint8 // 0 = compute wake, 1 = line arrival
}

type warp struct {
	state       warpState
	stream      *kernels.WarpStream
	block       int // resident-block slot
	outstanding int // memory lines still in flight for the blocking load
	pendingOp   kernels.Op
	pendingIdx  int // next line of pendingOp to process; -1 = no pending op
}

// Stats is a snapshot of per-SM activity counters. All counters accumulate
// since the last ResetStats and belong to the SM's current owner app.
type Stats struct {
	Cycles       uint64
	ActiveCycles uint64 // cycles with at least one resident warp
	// StallUnits accumulates the fraction of issue slots lost per active
	// cycle while at least one warp was blocked on memory: a cycle that
	// issues nothing while warps wait on loads contributes 1, a cycle that
	// fills half its slots contributes 0.5. Alpha = StallUnits /
	// ActiveCycles is the memory-stall fraction of Eq. 15.
	StallUnits  float64
	Issued      uint64 // warp instructions issued
	MemInsts    uint64
	LoadsL1Hit  uint64
	LoadsL1Miss uint64
	BlocksDone  uint64

	// MemLat accumulates load round-trip latencies (issue to reply at the
	// SM) and LatHist buckets them for tail analysis.
	MemLat  stats.Online
	LatHist stats.LogHist
}

// Alpha returns the fraction of the SM pipeline lost to memory waiting (the
// α of Eq. 15).
func (s Stats) Alpha() float64 {
	if s.ActiveCycles == 0 {
		return 0
	}
	return s.StallUnits / float64(s.ActiveCycles)
}

// IPC returns issued warp instructions per cycle over the snapshot window.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Cycles)
}

// SM is one streaming multiprocessor.
type SM struct {
	ID  int
	cfg config.Config

	owner    memreq.AppID
	source   BlockSource
	draining bool
	// The owner's block width and how many of its blocks fit (MaxBlocks and
	// warp capacity), fixed by Assign so the per-cycle dispatch check is two
	// integer compares.
	warpsPerBlock int
	blockCap      int

	// deferFinish redirects BlockFinished notifications into a counter that
	// the caller replays later with ReplayFinishes. The parallel cycle engine
	// uses it: block sources are shared across the SMs of one app, so during
	// a concurrent compute phase an SM must not call into its source.
	deferFinish     bool
	pendingFinishes int

	l1   *cache.Cache
	amap memreq.AddrMap
	pool *memreq.Pool // shared per-GPU request recycler

	warps     []warp
	freeSlots []int
	runnable  *ring.Buffer[int32] // ready warp indices, issued round-robin
	wheel     [wheelSize][]wheelEntry

	resident   int // resident thread blocks
	blockWarps []int
	// blockAtBarrier counts warps of each resident block currently waiting
	// at a block-wide barrier.
	blockAtBarrier []int
	maxResident    int

	// outbox holds requests accepted by the LSU but not yet injected into
	// the interconnect; when it backs up, memory issue throttles.
	outbox *ring.Buffer[*memreq.Request]

	// waiters[slot] lists the warps blocked on the in-flight L1 miss
	// tracked by MSHR slot (the MSHR merge lists). Slot numbers come from
	// the L1's AccessIdx/FillIdx, so no per-line map is needed.
	waiters [][]int32

	stats Stats
}

const outboxLimit = 48

// New builds an SM. All SMs of one GPU share the request pool; pass nil to
// give the SM a private one (tests).
func New(id int, cfg config.Config, amap memreq.AddrMap, pool *memreq.Pool) *SM {
	if pool == nil {
		pool = &memreq.Pool{}
	}
	maxRes := cfg.SM.MaxBlocks
	sm := &SM{
		ID:             id,
		cfg:            cfg,
		owner:          memreq.InvalidApp,
		l1:             cache.NewCache(cfg.L1, 1),
		amap:           amap,
		pool:           pool,
		warps:          make([]warp, cfg.SM.MaxWarps),
		runnable:       ring.New[int32](cfg.SM.MaxWarps),
		maxResident:    maxRes,
		blockWarps:     make([]int, maxRes),
		blockAtBarrier: make([]int, maxRes),
		outbox:         ring.New[*memreq.Request](outboxLimit),
		waiters:        make([][]int32, cfg.L1.MSHRs),
	}
	for i := range sm.waiters {
		sm.waiters[i] = make([]int32, 0, cfg.L1.MSHRMerge+1)
	}
	sm.freeSlots = make([]int, 0, cfg.SM.MaxWarps)
	for i := cfg.SM.MaxWarps - 1; i >= 0; i-- {
		sm.freeSlots = append(sm.freeSlots, i)
	}
	for i := range sm.warps {
		sm.warps[i].pendingIdx = -1
	}
	return sm
}

// Owner returns the application currently running on the SM.
func (sm *SM) Owner() memreq.AppID { return sm.owner }

// Assign gives the SM to an application. The SM must be idle (drained).
func (sm *SM) Assign(app memreq.AppID, src BlockSource) {
	if sm.resident != 0 {
		panic(fmt.Sprintf("smcore: assigning SM %d while %d blocks resident", sm.ID, sm.resident))
	}
	if sm.l1.MSHRsInUse() != 0 {
		panic(fmt.Sprintf("smcore: assigning SM %d with in-flight loads", sm.ID))
	}
	sm.owner = app
	sm.source = src
	sm.draining = false
	if src != nil {
		sm.warpsPerBlock = src.WarpsPerBlock()
		sm.blockCap = sm.cfg.SM.MaxWarps / sm.warpsPerBlock
		if sm.blockCap < 1 {
			sm.blockCap = 1
		}
		if sm.blockCap > sm.maxResident {
			sm.blockCap = sm.maxResident
		}
	}
	sm.l1.Reset() // context switch flushes the private cache
}

// Drain stops new thread-block dispatch; the SM becomes idle once resident
// blocks finish (the SM-draining reallocation of §7).
func (sm *SM) Drain() { sm.draining = true }

// Undrain resumes thread-block dispatch on a draining SM (a cancelled
// reassignment).
func (sm *SM) Undrain() { sm.draining = false }

// Draining reports whether the SM is refusing new blocks.
func (sm *SM) Draining() bool { return sm.draining }

// Idle reports whether the SM has no resident work.
func (sm *SM) Idle() bool { return sm.resident == 0 }

// ResidentBlocks returns the number of thread blocks currently resident.
func (sm *SM) ResidentBlocks() int { return sm.resident }

// Stats returns a copy of the activity counters.
func (sm *SM) Stats() Stats { return sm.stats }

// ResetStats zeroes the activity counters (start of an interval or after a
// reallocation).
func (sm *SM) ResetStats() { sm.stats = Stats{} }

// Outbox returns the pending outbound requests; the simulator drains it via
// PopOutbox as interconnect ports free up.
func (sm *SM) OutboxLen() int { return sm.outbox.Len() }

// PeekOutbox returns the head outbound request without removing it.
func (sm *SM) PeekOutbox() *memreq.Request {
	if sm.outbox.Empty() {
		return nil
	}
	return sm.outbox.Front()
}

// PopOutbox removes and returns the head outbound request.
func (sm *SM) PopOutbox() *memreq.Request {
	return sm.outbox.PopFront()
}

// tryDispatch fills free block slots from the source, respecting the
// residency limits (MaxBlocks and warp capacity). It reports whether the SM
// still had room for a block the source could not supply ("hungry") — the
// only case where a same-cycle BlockFinished on another SM could have made a
// difference (a kernel relaunch gated on inFlight==0).
func (sm *SM) tryDispatch() (hungry bool) {
	if sm.draining || sm.source == nil {
		return false
	}
	for sm.resident < sm.blockCap && len(sm.freeSlots) >= sm.warpsPerBlock {
		slot := -1
		for i := 0; i < sm.maxResident; i++ {
			if sm.blockWarps[i] == 0 {
				slot = i
				break
			}
		}
		if slot == -1 {
			return false
		}
		streams, ok := sm.source.NextBlock()
		if !ok {
			return true
		}
		if len(streams) > len(sm.freeSlots) {
			panic("smcore: block dispatched beyond warp capacity")
		}
		sm.blockWarps[slot] = len(streams)
		sm.resident++
		for _, ws := range streams {
			wi := sm.freeSlots[len(sm.freeSlots)-1]
			sm.freeSlots = sm.freeSlots[:len(sm.freeSlots)-1]
			w := &sm.warps[wi]
			w.state = warpReady
			w.stream = ws
			w.block = slot
			w.outstanding = 0
			w.pendingIdx = -1
			sm.runnable.PushBack(int32(wi))
		}
	}
	return false
}

// retireWarp releases a finished warp and possibly its block.
func (sm *SM) retireWarp(wi int) {
	w := &sm.warps[wi]
	slot := w.block
	w.state = warpFree
	w.stream = nil
	sm.freeSlots = append(sm.freeSlots, wi)
	sm.blockWarps[slot]--
	if sm.blockWarps[slot] == 0 {
		sm.resident--
		sm.stats.BlocksDone++
		if sm.deferFinish {
			sm.pendingFinishes++
		} else if sm.source != nil {
			sm.source.BlockFinished()
		}
	}
}

// Cycle advances the SM one core cycle at time now.
func (sm *SM) Cycle(now uint64) {
	sm.stats.Cycles++
	sm.tryDispatch()
	sm.wakeWheel(now)
	hasResident := sm.resident > 0
	if hasResident {
		sm.stats.ActiveCycles++
	}
	sm.issueAndAccount(now, hasResident)
}

// wakeWheel wakes warps whose timer expired at now.
func (sm *SM) wakeWheel(now uint64) {
	slotIdx := now % wheelSize
	if entries := sm.wheel[slotIdx]; len(entries) > 0 {
		for _, e := range entries {
			w := &sm.warps[e.warp]
			switch e.kind {
			case 0: // compute wake
				if w.state == warpComputeWait {
					w.state = warpReady
					sm.runnable.PushBack(int32(e.warp))
				}
			case 1: // L1-hit line arrival
				sm.lineArrived(e.warp)
			}
		}
		sm.wheel[slotIdx] = sm.wheel[slotIdx][:0]
	}
}

// issueAndAccount runs the issue loop for one cycle and attributes lost
// issue slots to memory or compute stalls.
func (sm *SM) issueAndAccount(now uint64, hasResident bool) {
	issued := 0
	blocked := false
	attempts := sm.runnable.Len()
	for issued < sm.cfg.SM.IssueWidth && attempts > 0 && !sm.runnable.Empty() {
		attempts--
		wi := int(sm.runnable.PopFront())
		switch sm.issueWarp(wi, now) {
		case issueOK:
			issued++
		case issueBlocked:
			// Structural hazard (MSHR/outbox full): requeue and stop
			// trying this cycle — the hazard will not clear mid-cycle.
			sm.runnable.PushBack(int32(wi))
			attempts = 0
			blocked = true
		case issueRetired, issueWaiting:
			// warp left the runnable queue
		}
	}

	if hasResident && issued < sm.cfg.SM.IssueWidth {
		// Attribute lost issue slots to memory in proportion to the warps
		// blocked on loads vs compute latency; memory back-pressure
		// (blocked outbox/MSHRs) is fully memory-attributable.
		lost := float64(sm.cfg.SM.IssueWidth-issued) / float64(sm.cfg.SM.IssueWidth)
		if blocked {
			sm.stats.StallUnits += lost
		} else {
			mem, comp := sm.waitCounts()
			if mem > 0 {
				sm.stats.StallUnits += lost * float64(mem) / float64(mem+comp)
			}
		}
	}
}

// The phase API below splits Cycle for the parallel cycle engine. One
// simulated cycle for SM i is the sequence
//
//	DispatchPhase(i) ; ComputePhase(i)
//
// and the sequential engine's per-cycle order D0 C0 D1 C1 ... is
// reconstructed from the phased order D0 D1 ... C0 C1 ... (all dispatches,
// then all computes concurrently) plus an ordered recovery pass: for SMs
// whose DispatchPhase went hungry, RedispatchPhase retries the dispatch once
// the deferred BlockFinished notifications of lower-index SMs have been
// replayed. See internal/sim's parallel engine for why this reconstruction
// is exact.

// SetDeferFinish switches BlockFinished deferral on or off (see deferFinish).
func (sm *SM) SetDeferFinish(on bool) { sm.deferFinish = on }

// DispatchPhase runs only the thread-block dispatch part of Cycle and
// reports whether the SM went hungry: it had room for another block but the
// source could not supply one because earlier blocks were still in flight.
func (sm *SM) DispatchPhase() (hungry bool) { return sm.tryDispatch() }

// ComputePhase runs the rest of Cycle: timer wakes, the issue loop, and
// stall accounting. With deferral enabled it touches only SM-local state, so
// ComputePhase calls on different SMs may run concurrently.
func (sm *SM) ComputePhase(now uint64) {
	sm.stats.Cycles++
	sm.wakeWheel(now)
	hasResident := sm.resident > 0
	if hasResident {
		sm.stats.ActiveCycles++
	}
	sm.issueAndAccount(now, hasResident)
}

// RedispatchPhase retries a hungry SM's dispatch after lower-index SMs'
// deferred finishes have been replayed, and runs the compute a fresh block
// would have received in the sequential engine (dispatch precedes issue
// within one SM cycle). Only a completely idle SM can profit: a non-idle
// hungry SM's own resident blocks keep its app's in-flight count above zero,
// so the kernel relaunch it is waiting for cannot trigger this cycle and the
// retry is skipped. For an idle SM the earlier ComputePhase was a no-op
// (nothing runnable, no active-cycle accounting), so dispatch + active
// accounting + issue here reproduces the sequential Cycle exactly.
func (sm *SM) RedispatchPhase(now uint64) {
	if sm.resident != 0 {
		return
	}
	sm.tryDispatch()
	if sm.resident == 0 {
		return
	}
	sm.stats.ActiveCycles++
	sm.issueAndAccount(now, true)
}

// ReplayFinishes delivers the BlockFinished notifications deferred during
// ComputePhase to the block source, in aggregate (the source's accounting is
// order-independent across blocks).
func (sm *SM) ReplayFinishes() {
	n := sm.pendingFinishes
	if n == 0 {
		return
	}
	sm.pendingFinishes = 0
	if sm.source == nil {
		return
	}
	for ; n > 0; n-- {
		sm.source.BlockFinished()
	}
}

// waitCounts returns how many warps are blocked on memory vs on compute
// dependencies.
func (sm *SM) waitCounts() (mem, comp int) {
	for i := range sm.warps {
		switch sm.warps[i].state {
		case warpMemWait:
			mem++
		case warpComputeWait:
			comp++
		}
	}
	return mem, comp
}

type issueResult uint8

const (
	issueOK issueResult = iota
	issueBlocked
	issueWaiting
	issueRetired
)

// issueWarp issues (or resumes) one instruction for warp wi.
func (sm *SM) issueWarp(wi int, now uint64) issueResult {
	w := &sm.warps[wi]
	if w.pendingIdx < 0 {
		if !w.stream.Next(&w.pendingOp) {
			sm.retireWarp(wi)
			return issueRetired
		}
		sm.stats.Issued++
		op := &w.pendingOp
		if op.Barrier {
			return sm.arriveBarrier(wi, now)
		}
		if !op.Mem {
			w.state = warpComputeWait
			lat := uint64(op.ComputeLat)
			if lat == 0 {
				lat = 1
			}
			sm.wheel[(now+lat)%wheelSize] = append(sm.wheel[(now+lat)%wheelSize], wheelEntry{wi, 0})
			return issueOK
		}
		sm.stats.MemInsts++
		w.pendingIdx = 0
	}

	op := &w.pendingOp
	for w.pendingIdx < op.NLines {
		addr := sm.amap.LineAddr(op.Lines[w.pendingIdx])
		if op.Write {
			// Write-through, no-allocate: stores bypass L1 and do not
			// block the warp, but need outbox space.
			if sm.outbox.Len() >= outboxLimit {
				return issueBlocked
			}
			r := sm.pool.Get()
			r.App, r.SM, r.Warp = sm.owner, sm.ID, wi
			r.Addr, r.Kind, r.Issued = addr, memreq.Write, now
			sm.outbox.PushBack(r)
			w.pendingIdx++
			continue
		}
		set := sm.amap.CacheSet(addr, sm.l1.Sets())
		// Peek outbox space before a potentially mutating access.
		if sm.outbox.Len() >= outboxLimit && !sm.l1.Probe(set, addr) {
			return issueBlocked
		}
		res, slot := sm.l1.AccessIdx(0, set, addr, false)
		switch res {
		case cache.Hit:
			sm.stats.LoadsL1Hit++
			w.outstanding++
			lat := sm.cfg.L1.HitLatency
			sm.wheel[(now+lat)%wheelSize] = append(sm.wheel[(now+lat)%wheelSize], wheelEntry{wi, 1})
		case cache.Miss:
			sm.stats.LoadsL1Miss++
			w.outstanding++
			sm.waiters[slot] = append(sm.waiters[slot][:0], int32(wi))
			r := sm.pool.Get()
			r.App, r.SM, r.Warp = sm.owner, sm.ID, wi
			r.Addr, r.Kind, r.Issued = addr, memreq.Read, now
			sm.outbox.PushBack(r)
		case cache.MergedMiss:
			sm.stats.LoadsL1Miss++
			w.outstanding++
			sm.waiters[slot] = append(sm.waiters[slot], int32(wi))
		case cache.Blocked:
			return issueBlocked
		}
		w.pendingIdx++
	}

	// All lines processed.
	w.pendingIdx = -1
	if w.outstanding > 0 {
		w.state = warpMemWait
		return issueOK
	}
	// Pure-store instruction: warp continues next cycle.
	w.state = warpComputeWait
	sm.wheel[(now+1)%wheelSize] = append(sm.wheel[(now+1)%wheelSize], wheelEntry{wi, 0})
	return issueOK
}

// arriveBarrier parks the warp at its block's barrier, releasing everyone
// when the last sibling arrives (__syncthreads semantics).
func (sm *SM) arriveBarrier(wi int, now uint64) issueResult {
	w := &sm.warps[wi]
	slot := w.block
	sm.blockAtBarrier[slot]++
	if sm.blockAtBarrier[slot] < sm.blockWarps[slot] {
		w.state = warpBarrierWait
		return issueOK
	}
	// Last arrival: release the whole block next cycle.
	sm.blockAtBarrier[slot] = 0
	for i := range sm.warps {
		o := &sm.warps[i]
		if o.state == warpBarrierWait && o.block == slot {
			o.state = warpComputeWait
			sm.wheel[(now+1)%wheelSize] = append(sm.wheel[(now+1)%wheelSize], wheelEntry{i, 0})
		}
	}
	w.state = warpComputeWait
	sm.wheel[(now+1)%wheelSize] = append(sm.wheel[(now+1)%wheelSize], wheelEntry{wi, 0})
	return issueOK
}

// lineArrived delivers one line of data to a waiting warp.
func (sm *SM) lineArrived(wi int) {
	w := &sm.warps[wi]
	if w.outstanding > 0 {
		w.outstanding--
	}
	if w.outstanding == 0 && w.state == warpMemWait {
		w.state = warpReady
		sm.runnable.PushBack(int32(wi))
	}
}

// DeliverReply processes a read reply arriving from the interconnect at
// cycle now: fills the L1 line, records the round-trip latency, and wakes
// every warp merged on it.
func (sm *SM) DeliverReply(r *memreq.Request, now uint64) {
	if now >= r.Issued {
		lat := now - r.Issued
		sm.stats.MemLat.Add(float64(lat))
		sm.stats.LatHist.Add(lat)
	}
	addr := r.Addr
	set := sm.amap.CacheSet(addr, sm.l1.Sets())
	_, _, _, slot := sm.l1.FillIdx(0, set, addr, false)
	if slot >= 0 {
		for _, wi := range sm.waiters[slot] {
			sm.lineArrived(int(wi))
		}
		sm.waiters[slot] = sm.waiters[slot][:0]
	}
	sm.pool.Put(r)
}

// ForEachOutbox calls fn for every request accepted by the LSU but not yet
// injected into the interconnect — the SM's contribution to the simulator's
// live-request set.
func (sm *SM) ForEachOutbox(fn func(*memreq.Request)) { sm.outbox.Do(fn) }

// CheckInvariants cross-checks the SM's scheduling bookkeeping:
//
//   - outbox and runnable rings satisfy the ring structural contract;
//   - every runnable entry is a distinct, in-range, non-free warp;
//   - the free-slot stack is duplicate-free and lists exactly the warps in
//     the free state;
//   - every non-empty L1 waiter list sits on an allocated MSHR whose merge
//     count matches the list length, every allocated MSHR has waiters, and
//     the L1's own MSHR views agree.
//
// It is O(warps + MSHRs) and mutates nothing; meant for debug runs under
// sim.WithInvariantChecks, not the per-cycle hot path.
func (sm *SM) CheckInvariants() error {
	if err := sm.outbox.CheckInvariants(func(r *memreq.Request) bool { return r == nil }); err != nil {
		return fmt.Errorf("smcore %d outbox: %w", sm.ID, err)
	}
	if err := sm.runnable.CheckInvariants(func(v int32) bool { return v == 0 }); err != nil {
		return fmt.Errorf("smcore %d runnable: %w", sm.ID, err)
	}
	var rerr error
	queued := make([]bool, len(sm.warps))
	sm.runnable.Do(func(v int32) {
		wi := int(v)
		switch {
		case wi < 0 || wi >= len(sm.warps):
			rerr = fmt.Errorf("smcore %d: runnable warp %d out of range", sm.ID, wi)
		case queued[wi]:
			rerr = fmt.Errorf("smcore %d: warp %d on the runnable queue twice", sm.ID, wi)
		case sm.warps[wi].state == warpFree:
			rerr = fmt.Errorf("smcore %d: free warp %d on the runnable queue", sm.ID, wi)
		default:
			queued[wi] = true
		}
	})
	if rerr != nil {
		return rerr
	}
	var outerr error
	sm.outbox.Do(func(r *memreq.Request) {
		if outerr != nil {
			return
		}
		switch {
		case r == nil:
			outerr = fmt.Errorf("smcore %d: nil request in outbox", sm.ID)
		case r.SM != sm.ID:
			outerr = fmt.Errorf("smcore %d: outbox request %v stamped for SM %d", sm.ID, r, r.SM)
		}
	})
	if outerr != nil {
		return outerr
	}
	free := make([]bool, len(sm.warps))
	for _, wi := range sm.freeSlots {
		if wi < 0 || wi >= len(sm.warps) {
			return fmt.Errorf("smcore %d: free slot %d out of range", sm.ID, wi)
		}
		if free[wi] {
			return fmt.Errorf("smcore %d: warp %d on the free stack twice", sm.ID, wi)
		}
		free[wi] = true
		if sm.warps[wi].state != warpFree {
			return fmt.Errorf("smcore %d: warp %d on the free stack in state %d", sm.ID, wi, sm.warps[wi].state)
		}
	}
	nFree := 0
	for i := range sm.warps {
		if sm.warps[i].state == warpFree {
			nFree++
			if !free[i] {
				return fmt.Errorf("smcore %d: free warp %d missing from the free stack", sm.ID, i)
			}
		}
	}
	if nFree != len(sm.freeSlots) {
		return fmt.Errorf("smcore %d: %d free warps but %d free slots", sm.ID, nFree, len(sm.freeSlots))
	}
	nonEmpty := 0
	for slot, ws := range sm.waiters {
		if len(ws) == 0 {
			continue
		}
		nonEmpty++
		if _, ok := sm.l1.MSHRAddr(slot); !ok {
			return fmt.Errorf("smcore %d: %d waiters on unallocated L1 MSHR slot %d", sm.ID, len(ws), slot)
		}
		if want := sm.l1.MSHRMerged(slot) + 1; want != len(ws) {
			return fmt.Errorf("smcore %d: L1 MSHR slot %d merge count says %d waiters, list holds %d", sm.ID, slot, want, len(ws))
		}
		for _, wi := range ws {
			if int(wi) < 0 || int(wi) >= len(sm.warps) {
				return fmt.Errorf("smcore %d: L1 MSHR slot %d waiter warp %d out of range", sm.ID, slot, wi)
			}
			if sm.warps[wi].state == warpFree {
				return fmt.Errorf("smcore %d: free warp %d waiting on L1 MSHR slot %d", sm.ID, wi, slot)
			}
		}
	}
	if inUse := sm.l1.MSHRsInUse(); nonEmpty != inUse {
		return fmt.Errorf("smcore %d: %d allocated L1 MSHRs but %d non-empty waiter lists", sm.ID, inUse, nonEmpty)
	}
	if err := sm.l1.CheckInvariants(); err != nil {
		return fmt.Errorf("smcore %d: %w", sm.ID, err)
	}
	return nil
}
