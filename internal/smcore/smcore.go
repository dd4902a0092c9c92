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
//
// The issue path is laid out for locality (DESIGN §10.2): a compute
// instruction is one decrement in a 24-byte warp record plus a 2-byte push
// into a timing wheel stored inside the SM; the instruction stream and the
// decoded memory op sit in a parallel array only memory instructions touch;
// and a warp that found a structural hazard is turned away without an L1
// lookup until something that could clear the hazard has happened.
// internal/refmodel keeps the straight per-instruction SM as the oracle.
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

// The timing wheel: slot (now+d) % wheelSize holds the wakes due d cycles
// ahead, so every latency the SM schedules by must be below wheelSize —
// config.Validate and kernels.Profile.Validate reject the rest, New and
// issueWarp panic on what slips past them. Each slot stores its first
// wheelInline entries in the SM itself, count and entries in one 16-byte
// record; the rare slot that takes more (a barrier releasing a wide block
// into now+1) continues in sm.spill.
const (
	wheelSize   = config.WheelHorizon
	wheelInline = 7
)

// wheelEntry is warp<<1 | kind; maxWheelWarp is the largest warp index that
// leaves room for (config.Validate bounds SM.MaxWarps to match).
type wheelEntry uint16

const maxWheelWarp = int(^wheelEntry(0) >> 1)

const (
	wakeCompute wheelEntry = 0 // the warp's dependent-issue latency elapsed
	wakeLine    wheelEntry = 1 // one L1-hit line of the warp's load arrived
)

// wheelSlot holds the first wheelInline wakes due at one cycle, in push order.
type wheelSlot struct {
	n uint8
	e [wheelInline]wheelEntry
}

// spilledEntry is a wheel entry that did not fit its slot's inline array.
type spilledEntry struct {
	slot uint8
	e    wheelEntry
}

// warp is the hot half of a warp slot: all that Cycle reads or writes for a
// compute instruction, a wake or a blocked retry. The instruction stream and
// the decoded memory op are in SM.cold, same index.
type warp struct {
	state       warpState
	memoL1      bool   // the memoised verdict came from l1.AccessIdx
	pendingIdx  int8   // next line of the pending memory op; -1 = no pending op
	outstanding uint8  // lines still in flight for the blocking load
	block       uint16 // resident-block slot
	computeLat  uint16 // dependent-issue latency of the current compute run
	computeLeft int    // compute instructions of the run not yet issued
	// memoEpoch is the SM's hazardEpoch when the pending line was last found
	// blocked (0 = never): while the two are equal nothing that could clear
	// the hazard has happened, so issueWarp returns issueBlocked unasked.
	memoEpoch uint64
}

// warpCold is the half of a warp slot only memory instructions, run
// boundaries and dispatch touch.
type warpCold struct {
	stream kernels.WarpStream // copied out of the block source's stream
	op     kernels.Op         // the pending memory op (or last barrier)
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

	l1   *cache.Cache
	amap memreq.AddrMap
	pool *memreq.Pool // shared per-GPU request recycler

	warps     []warp
	cold      []warpCold
	freeSlots []int
	runnable  *ring.Buffer[int32] // ready warp indices, issued round-robin

	// Slot s's wakes are wheel[s].e[:wheel[s].n] followed by the entries of
	// spill tagged s, both in push order; an entry spills only while its slot
	// is full (n == wheelInline). Wake order is push order, which is what the
	// runnable queue's order — and so every result digest — depends on.
	wheel [wheelSize]wheelSlot
	spill []spilledEntry

	// hazardEpoch advances at the only events that can clear a structural
	// hazard: DeliverReply (frees an MSHR, installs a line), PopOutbox and
	// Assign. Between two advances MSHRs are only allocated, merge counts
	// only rise, the outbox only fills and the L1's contents do not change,
	// so a blocked verdict stays blocked (see warp.memoEpoch). 64 bits: a
	// 32-bit epoch would wrap inside a long run and match a stale memo.
	hazardEpoch uint64

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
	if cfg.SM.MaxWarps-1 > maxWheelWarp || cfg.L1.HitLatency >= wheelSize {
		// config.Validate rejects both; aliasing a wake would be silent.
		panic(fmt.Sprintf("smcore: MaxWarps %d / L1.HitLatency %d outside the timing wheel (warp index <= %d, horizon %d)",
			cfg.SM.MaxWarps, cfg.L1.HitLatency, maxWheelWarp, wheelSize))
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
		cold:           make([]warpCold, cfg.SM.MaxWarps),
		runnable:       ring.New[int32](cfg.SM.MaxWarps),
		spill:          make([]spilledEntry, 0, cfg.SM.MaxWarps),
		hazardEpoch:    1,
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
	sm.hazardEpoch++
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
	sm.hazardEpoch++
	return sm.outbox.PopFront()
}

// tryDispatch fills free block slots from the source, respecting the
// residency limits (MaxBlocks and warp capacity).
func (sm *SM) tryDispatch() {
	if sm.draining || sm.source == nil {
		return
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
			return
		}
		streams, ok := sm.source.NextBlock()
		if !ok {
			return
		}
		if len(streams) > len(sm.freeSlots) {
			panic("smcore: block dispatched beyond warp capacity")
		}
		sm.blockWarps[slot] = len(streams)
		sm.resident++
		for _, ws := range streams {
			wi := sm.freeSlots[len(sm.freeSlots)-1]
			sm.freeSlots = sm.freeSlots[:len(sm.freeSlots)-1]
			sm.warps[wi] = warp{state: warpReady, block: uint16(slot), pendingIdx: -1}
			sm.cold[wi].stream = *ws
			sm.runnable.PushBack(int32(wi))
		}
	}
}

// retireWarp releases a finished warp and possibly its block.
func (sm *SM) retireWarp(wi int) {
	w := &sm.warps[wi]
	slot := w.block
	w.state = warpFree
	sm.freeSlots = append(sm.freeSlots, wi)
	sm.blockWarps[slot]--
	if sm.blockWarps[slot] == 0 {
		sm.resident--
		sm.stats.BlocksDone++
		if sm.source != nil {
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

// pushWheel schedules a wake of warp wi at cycle at (< now + wheelSize).
func (sm *SM) pushWheel(at uint64, wi int, kind wheelEntry) {
	e := wheelEntry(wi)<<1 | kind
	s := at % wheelSize
	slot := &sm.wheel[s]
	if n := slot.n; n < wheelInline {
		slot.e[n] = e
		slot.n = n + 1
		return
	}
	sm.spill = append(sm.spill, spilledEntry{uint8(s), e})
}

// wakeWheel wakes warps whose timer expired at now.
func (sm *SM) wakeWheel(now uint64) {
	s := now % wheelSize
	slot := &sm.wheel[s]
	n := slot.n
	if n == 0 {
		return
	}
	slot.n = 0
	for _, e := range slot.e[:n] {
		sm.wake(e)
	}
	if n == wheelInline && len(sm.spill) > 0 {
		// Wake this slot's spilled entries in push order, keep the rest.
		kept := sm.spill[:0]
		for _, sp := range sm.spill {
			if sp.slot == uint8(s) {
				sm.wake(sp.e)
			} else {
				kept = append(kept, sp)
			}
		}
		sm.spill = kept
	}
}

func (sm *SM) wake(e wheelEntry) {
	wi := int(e >> 1)
	if e&1 == wakeLine {
		sm.lineArrived(wi)
		return
	}
	if w := &sm.warps[wi]; w.state == warpComputeWait {
		w.state = warpReady
		sm.runnable.PushBack(int32(wi))
	}
}

// issueAndAccount runs the issue loop for one cycle and attributes lost
// issue slots to memory or compute stalls.
func (sm *SM) issueAndAccount(now uint64, hasResident bool) {
	issued := 0
	blocked := false
	width := sm.cfg.SM.IssueWidth
	for attempts := sm.runnable.Len(); issued < width && attempts > 0; {
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

	if hasResident && issued < width {
		// Attribute lost issue slots to memory in proportion to the warps
		// blocked on loads vs compute latency; memory back-pressure
		// (blocked outbox/MSHRs) is fully memory-attributable.
		lost := float64(width-issued) / float64(width)
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
		if w.computeLeft == 0 {
			// Run boundary: decode the next compute run in one go, or the
			// memory instruction, barrier or stream end that follows one.
			c := &sm.cold[wi]
			n, lat := c.stream.ComputeRun()
			if n == 0 {
				if !c.stream.Next(&c.op) {
					sm.retireWarp(wi)
					return issueRetired
				}
				sm.stats.Issued++
				if c.op.Barrier {
					return sm.arriveBarrier(wi, now)
				}
				// ComputeRun is maximal, so this is a memory instruction.
				sm.stats.MemInsts++
				w.pendingIdx = 0
				return sm.issueMem(w, c, wi, now)
			}
			if lat == 0 {
				lat = 1
			}
			if lat >= wheelSize {
				panic(fmt.Sprintf("smcore: ComputeLat %d at or past the timing-wheel horizon %d", lat, wheelSize))
			}
			w.computeLeft, w.computeLat = n, uint16(lat)
		}
		w.computeLeft--
		sm.stats.Issued++
		w.state = warpComputeWait
		sm.pushWheel(now+uint64(w.computeLat), wi, wakeCompute)
		return issueOK
	}
	if w.memoEpoch == sm.hazardEpoch {
		// Still blocked. A retry that would have reached the L1 — the outbox
		// may have filled since, which turns it away first — books what the
		// blocked access books there, so L1 stats and LRU stamps match.
		if w.memoL1 && sm.outbox.Len() < outboxLimit {
			sm.l1.NoteBlocked(0)
		}
		return issueBlocked
	}
	return sm.issueMem(w, &sm.cold[wi], wi, now)
}

// issueMem processes the lines of warp wi's pending memory op from
// pendingIdx on, until the op completes or a line meets a structural hazard.
func (sm *SM) issueMem(w *warp, c *warpCold, wi int, now uint64) issueResult {
	op := &c.op
	for int(w.pendingIdx) < op.NLines {
		addr := sm.amap.LineAddr(op.Lines[w.pendingIdx])
		if op.Write {
			// Write-through, no-allocate: stores bypass L1 and do not
			// block the warp, but need outbox space.
			if sm.outbox.Len() >= outboxLimit {
				w.memoEpoch, w.memoL1 = sm.hazardEpoch, false
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
			w.memoEpoch, w.memoL1 = sm.hazardEpoch, false
			return issueBlocked
		}
		res, slot := sm.l1.AccessIdx(0, set, addr, false)
		switch res {
		case cache.Hit:
			sm.stats.LoadsL1Hit++
			w.outstanding++
			sm.pushWheel(now+sm.cfg.L1.HitLatency, wi, wakeLine)
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
			w.memoEpoch, w.memoL1 = sm.hazardEpoch, true
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
	sm.pushWheel(now+1, wi, wakeCompute)
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
			sm.pushWheel(now+1, i, wakeCompute)
		}
	}
	w.state = warpComputeWait
	sm.pushWheel(now+1, wi, wakeCompute)
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
	sm.hazardEpoch++
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
//     the L1's own MSHR views agree;
//   - the timing wheel, the per-warp counters and the blocked-verdict memos
//     agree with a from-scratch recount (checkIssueState).
//
// It is O(warps + MSHRs + wheel) and mutates nothing; meant for debug runs under
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
	return sm.checkIssueState()
}

// checkIssueState recomputes from scratch what the issue path keeps
// incrementally (DESIGN §10.2) and compares:
//
//   - a wheel slot holds at most wheelInline entries inline, and an entry is
//     spilled only for a slot that is full;
//   - a warp has a compute wake pending (inline or spilled) exactly when it
//     is in the compute-wait state, and then exactly one;
//   - a warp's outstanding count is its line wakes on the wheel plus its
//     places in the L1 waiter lists;
//   - computeLeft is never negative, and positive only with no memory op
//     pending;
//   - a memo is never from a later epoch than the SM's, and a warp whose
//     memo matches the current hazardEpoch is blocked right now — judged
//     from the outbox length, l1.Probe and the L1's MSHR views, none of
//     which the check mutates.
func (sm *SM) checkIssueState() error {
	computeWakes := make([]int, len(sm.warps))
	lineWakes := make([]int, len(sm.warps))
	count := func(where string, e wheelEntry) error {
		wi := int(e >> 1)
		if wi >= len(sm.warps) {
			return fmt.Errorf("smcore %d: wheel %s names warp %d of %d", sm.ID, where, wi, len(sm.warps))
		}
		if e&1 == wakeLine {
			lineWakes[wi]++
		} else {
			computeWakes[wi]++
		}
		return nil
	}
	for s := range sm.wheel {
		slot := &sm.wheel[s]
		if slot.n > wheelInline {
			return fmt.Errorf("smcore %d: wheel slot %d counts %d entries, holds %d inline", sm.ID, s, slot.n, wheelInline)
		}
		for _, e := range slot.e[:slot.n] {
			if err := count(fmt.Sprintf("slot %d", s), e); err != nil {
				return err
			}
		}
	}
	for _, sp := range sm.spill {
		if int(sp.slot) >= wheelSize || sm.wheel[sp.slot].n != wheelInline {
			return fmt.Errorf("smcore %d: spill holds an entry for wheel slot %d, which is not full", sm.ID, sp.slot)
		}
		if err := count("spill", sp.e); err != nil {
			return err
		}
	}
	waiting := make([]int, len(sm.warps))
	for _, ws := range sm.waiters {
		for _, wi := range ws {
			waiting[wi]++ // range-checked by CheckInvariants
		}
	}
	if sm.hazardEpoch == 0 {
		return fmt.Errorf("smcore %d: hazardEpoch is 0, the no-memo value", sm.ID)
	}
	for wi := range sm.warps {
		w := &sm.warps[wi]
		want := 0
		if w.state == warpComputeWait {
			want = 1
		}
		if computeWakes[wi] != want {
			return fmt.Errorf("smcore %d: warp %d in state %d has %d compute wakes on the wheel, want %d", sm.ID, wi, w.state, computeWakes[wi], want)
		}
		if got := lineWakes[wi] + waiting[wi]; int(w.outstanding) != got {
			return fmt.Errorf("smcore %d: warp %d outstanding %d, but %d line wakes + %d waiter entries", sm.ID, wi, w.outstanding, lineWakes[wi], waiting[wi])
		}
		if w.computeLeft < 0 || (w.computeLeft > 0 && w.pendingIdx >= 0) {
			return fmt.Errorf("smcore %d: warp %d computeLeft %d with pendingIdx %d", sm.ID, wi, w.computeLeft, w.pendingIdx)
		}
		if w.memoEpoch > sm.hazardEpoch {
			return fmt.Errorf("smcore %d: warp %d memo epoch %d ahead of hazardEpoch %d", sm.ID, wi, w.memoEpoch, sm.hazardEpoch)
		}
		if w.memoEpoch != sm.hazardEpoch {
			continue
		}
		c := &sm.cold[wi]
		if !sm.blockedNow(w, c) {
			return fmt.Errorf("smcore %d: warp %d memo matches hazardEpoch %d but its pending line (idx %d) is not blocked", sm.ID, wi, sm.hazardEpoch, w.pendingIdx)
		}
		// An L1 verdict is a load's; any other comes from a full outbox,
		// which stays full until the epoch moves.
		if (w.memoL1 && c.op.Write) || (!w.memoL1 && sm.outbox.Len() < outboxLimit) {
			return fmt.Errorf("smcore %d: warp %d memoL1 %v on a blocked op (store %v) with %d in the outbox", sm.ID, wi, w.memoL1, c.op.Write, sm.outbox.Len())
		}
	}
	return nil
}

// blockedNow re-derives, without touching LRU state or counters, whether the
// warp's pending line would meet a structural hazard if issued now.
func (sm *SM) blockedNow(w *warp, c *warpCold) bool {
	if w.pendingIdx < 0 || int(w.pendingIdx) >= c.op.NLines {
		return false
	}
	full := sm.outbox.Len() >= outboxLimit
	if c.op.Write {
		return full
	}
	addr := sm.amap.LineAddr(c.op.Lines[w.pendingIdx])
	switch {
	case sm.l1.Probe(sm.amap.CacheSet(addr, sm.l1.Sets()), addr):
		return false
	case full:
		return true
	}
	if slot := sm.l1.MSHRSlot(addr); slot >= 0 {
		return sm.l1.MSHRMerged(slot) >= sm.cfg.L1.MSHRMerge
	}
	return sm.l1.MSHRsInUse() == sm.cfg.L1.MSHRs
}
