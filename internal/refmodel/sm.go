package refmodel

import (
	"fmt"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
	"dasesim/internal/stats"
)

// This file is the reference streaming multiprocessor: smcore.SM as it was
// before its issue path was made local (DESIGN §10.2), restated over the
// naive structures of this package. Every instruction is decoded by
// WarpStream.Next through the stream pointer the block source handed out, the
// timing wheel is a slice per slot, queues are FIFOs, requests are freshly
// allocated, a blocked warp re-derives its verdict from the L1 every cycle,
// and the L1 is an LRU list per set with a map of in-flight lines — no MSHR
// slots, no stamps, and of its statistics only the two a blocked retry moves.
// smcore's FuzzSMCycle drives both from one byte stream and compares them
// cycle by cycle.

// BlockSource is smcore.BlockSource, restated so this package does not
// import the code it checks.
type BlockSource interface {
	NextBlock() (warps []*kernels.WarpStream, ok bool)
	BlockFinished()
	WarpsPerBlock() int
}

// SMStats mirrors smcore.Stats field for field.
type SMStats struct {
	Cycles       uint64
	ActiveCycles uint64
	StallUnits   float64
	Issued       uint64
	MemInsts     uint64
	LoadsL1Hit   uint64
	LoadsL1Miss  uint64
	BlocksDone   uint64
	MemLat       stats.Online
	LatHist      stats.LogHist
}

type smWarpState uint8

const (
	smWarpFree smWarpState = iota
	smWarpReady
	smWarpComputeWait
	smWarpMemWait
	smWarpBarrierWait
)

type smWarp struct {
	state       smWarpState
	stream      *kernels.WarpStream
	block       int
	outstanding int
	op          kernels.Op
	pendingIdx  int // next line of op to process; -1 = no pending op
}

type smWake struct {
	warp int
	line bool // an L1-hit line arrival rather than a compute wake
}

// smOutboxLimit is smcore's outboxLimit.
const smOutboxLimit = 48

// SM is the reference streaming multiprocessor.
type SM struct {
	id   int
	cfg  config.Config
	amap memreq.AddrMap

	owner         memreq.AppID
	source        BlockSource
	draining      bool
	warpsPerBlock int
	blockCap      int

	warps          []smWarp
	freeSlots      []int
	runnable       FIFO[int]
	wheel          [config.WheelHorizon][]smWake
	resident       int
	blockWarps     []int
	blockAtBarrier []int
	outbox         FIFO[*memreq.Request]

	// The L1: per set, the resident lines from least to most recently used;
	// and per in-flight miss line, the warps waiting on it (one MSHR each,
	// the first waiter being the miss that allocated it).
	l1Sets  [][]uint64
	waiters map[uint64][]int
	// Loads that reached the L1, and those of them it turned away, since the
	// last Assign (cache.Stats Accesses and Blockings).
	l1Accesses, l1Blockings uint64

	stats SMStats
}

// NewSM builds a reference SM.
func NewSM(id int, cfg config.Config, amap memreq.AddrMap) *SM {
	sm := &SM{
		id:             id,
		cfg:            cfg,
		amap:           amap,
		owner:          memreq.InvalidApp,
		warps:          make([]smWarp, cfg.SM.MaxWarps),
		blockWarps:     make([]int, cfg.SM.MaxBlocks),
		blockAtBarrier: make([]int, cfg.SM.MaxBlocks),
		l1Sets:         make([][]uint64, cfg.L1.Sets()),
		waiters:        map[uint64][]int{},
	}
	for i := cfg.SM.MaxWarps - 1; i >= 0; i-- {
		sm.freeSlots = append(sm.freeSlots, i)
	}
	for i := range sm.warps {
		sm.warps[i].pendingIdx = -1
	}
	return sm
}

// Assign gives the idle SM to an application and flushes its L1.
func (sm *SM) Assign(app memreq.AppID, src BlockSource) {
	if sm.resident != 0 || len(sm.waiters) != 0 {
		panic(fmt.Sprintf("refmodel: assigning SM %d while busy", sm.id))
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
		if sm.blockCap > sm.cfg.SM.MaxBlocks {
			sm.blockCap = sm.cfg.SM.MaxBlocks
		}
	}
	for i := range sm.l1Sets {
		sm.l1Sets[i] = nil
	}
	sm.l1Accesses, sm.l1Blockings = 0, 0
}

// Drain stops new thread-block dispatch.
func (sm *SM) Drain() { sm.draining = true }

// Idle reports whether the SM has no resident work.
func (sm *SM) Idle() bool { return sm.resident == 0 }

// ResidentBlocks returns the number of thread blocks currently resident.
func (sm *SM) ResidentBlocks() int { return sm.resident }

// Stats returns a copy of the activity counters.
func (sm *SM) Stats() SMStats { return sm.stats }

// L1Counts returns the L1's access and blocking counts since the last Assign.
func (sm *SM) L1Counts() (accesses, blockings uint64) { return sm.l1Accesses, sm.l1Blockings }

// OutboxLen returns the number of requests awaiting injection.
func (sm *SM) OutboxLen() int { return sm.outbox.Len() }

// OutboxAt returns the i-th outbound request from the head.
func (sm *SM) OutboxAt(i int) *memreq.Request { return sm.outbox.At(i) }

// PopOutbox removes and returns the head outbound request.
func (sm *SM) PopOutbox() *memreq.Request { return sm.outbox.PopFront() }

func (sm *SM) tryDispatch() {
	if sm.draining || sm.source == nil {
		return
	}
	for sm.resident < sm.blockCap && len(sm.freeSlots) >= sm.warpsPerBlock {
		slot := -1
		for i, n := range sm.blockWarps {
			if n == 0 {
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
			panic("refmodel: block dispatched beyond warp capacity")
		}
		sm.blockWarps[slot] = len(streams)
		sm.resident++
		for _, ws := range streams {
			wi := sm.freeSlots[len(sm.freeSlots)-1]
			sm.freeSlots = sm.freeSlots[:len(sm.freeSlots)-1]
			sm.warps[wi] = smWarp{state: smWarpReady, stream: ws, block: slot, pendingIdx: -1}
			sm.runnable.PushBack(wi)
		}
	}
}

func (sm *SM) retireWarp(wi int) {
	w := &sm.warps[wi]
	slot := w.block
	w.state = smWarpFree
	w.stream = nil
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

func (sm *SM) wakeAt(at uint64, wi int, line bool) {
	s := at % config.WheelHorizon
	sm.wheel[s] = append(sm.wheel[s], smWake{wi, line})
}

// Cycle advances the SM one core cycle at time now: dispatch, timer wakes,
// the issue loop, and the attribution of lost issue slots.
func (sm *SM) Cycle(now uint64) {
	sm.stats.Cycles++
	sm.tryDispatch()

	s := now % config.WheelHorizon
	for _, e := range sm.wheel[s] {
		if e.line {
			sm.lineArrived(e.warp)
		} else if w := &sm.warps[e.warp]; w.state == smWarpComputeWait {
			w.state = smWarpReady
			sm.runnable.PushBack(e.warp)
		}
	}
	sm.wheel[s] = nil

	if sm.resident == 0 {
		return // every warp is free, so nothing is runnable
	}
	sm.stats.ActiveCycles++
	issued, blocked := sm.issue(now)
	width := sm.cfg.SM.IssueWidth
	if issued >= width {
		return
	}
	lost := float64(width-issued) / float64(width)
	if blocked {
		sm.stats.StallUnits += lost
		return
	}
	mem, comp := 0, 0
	for i := range sm.warps {
		switch sm.warps[i].state {
		case smWarpMemWait:
			mem++
		case smWarpComputeWait:
			comp++
		}
	}
	if mem > 0 {
		sm.stats.StallUnits += lost * float64(mem) / float64(mem+comp)
	}
}

// issue runs one cycle's issue loop: up to IssueWidth instructions from the
// head of the runnable queue, stopping at the first structural hazard.
func (sm *SM) issue(now uint64) (issued int, blocked bool) {
	for attempts := sm.runnable.Len(); issued < sm.cfg.SM.IssueWidth && attempts > 0; attempts-- {
		wi := sm.runnable.PopFront()
		switch sm.issueWarp(wi, now) {
		case smIssued:
			issued++
		case smBlocked:
			sm.runnable.PushBack(wi)
			return issued, true
		}
	}
	return issued, false
}

type smIssueResult uint8

const (
	smIssued smIssueResult = iota
	smBlocked
	smLeftQueue // retired, or parked without issuing
)

func (sm *SM) issueWarp(wi int, now uint64) smIssueResult {
	w := &sm.warps[wi]
	if w.pendingIdx < 0 {
		if !w.stream.Next(&w.op) {
			sm.retireWarp(wi)
			return smLeftQueue
		}
		sm.stats.Issued++
		if w.op.Barrier {
			sm.arriveBarrier(wi, now)
			return smIssued
		}
		if !w.op.Mem {
			w.state = smWarpComputeWait
			lat := uint64(w.op.ComputeLat)
			if lat == 0 {
				lat = 1
			}
			sm.wakeAt(now+lat, wi, false)
			return smIssued
		}
		sm.stats.MemInsts++
		w.pendingIdx = 0
	}

	for ; w.pendingIdx < w.op.NLines; w.pendingIdx++ {
		addr := sm.amap.LineAddr(w.op.Lines[w.pendingIdx])
		full := sm.outbox.Len() >= smOutboxLimit
		if w.op.Write {
			if full {
				return smBlocked
			}
			sm.send(wi, addr, memreq.Write, now)
			continue
		}
		set := sm.amap.CacheSet(addr, len(sm.l1Sets))
		hit := sm.l1Touch(set, addr)
		if !hit && full {
			return smBlocked // turned away before the L1 is consulted
		}
		sm.l1Accesses++
		switch ws, inFlight := sm.waiters[addr]; {
		case hit:
			sm.stats.LoadsL1Hit++
			sm.wakeAt(now+sm.cfg.L1.HitLatency, wi, true)
		case inFlight && len(ws) > sm.cfg.L1.MSHRMerge,
			!inFlight && len(sm.waiters) >= sm.cfg.L1.MSHRs:
			sm.l1Blockings++
			return smBlocked
		case inFlight:
			sm.stats.LoadsL1Miss++
			sm.waiters[addr] = append(ws, wi)
		default:
			sm.stats.LoadsL1Miss++
			sm.waiters[addr] = []int{wi}
			sm.send(wi, addr, memreq.Read, now)
		}
		w.outstanding++
	}

	w.pendingIdx = -1
	if w.outstanding > 0 {
		w.state = smWarpMemWait
		return smIssued
	}
	// Pure-store instruction: the warp continues next cycle.
	w.state = smWarpComputeWait
	sm.wakeAt(now+1, wi, false)
	return smIssued
}

func (sm *SM) send(wi int, addr uint64, kind memreq.Kind, now uint64) {
	sm.outbox.PushBack(&memreq.Request{App: sm.owner, SM: sm.id, Warp: wi, Addr: addr, Kind: kind, Issued: now})
}

// l1Touch reports whether the line is resident, making it the set's most
// recently used if so.
func (sm *SM) l1Touch(set int, addr uint64) bool {
	lines := sm.l1Sets[set]
	for i, a := range lines {
		if a == addr {
			copy(lines[i:], lines[i+1:])
			lines[len(lines)-1] = addr
			return true
		}
	}
	return false
}

func (sm *SM) arriveBarrier(wi int, now uint64) {
	w := &sm.warps[wi]
	slot := w.block
	sm.blockAtBarrier[slot]++
	if sm.blockAtBarrier[slot] < sm.blockWarps[slot] {
		w.state = smWarpBarrierWait
		return
	}
	// Last arrival: release the whole block next cycle, siblings in warp
	// order, the arriving warp last.
	sm.blockAtBarrier[slot] = 0
	for i := range sm.warps {
		if o := &sm.warps[i]; o.state == smWarpBarrierWait && o.block == slot {
			o.state = smWarpComputeWait
			sm.wakeAt(now+1, i, false)
		}
	}
	w.state = smWarpComputeWait
	sm.wakeAt(now+1, wi, false)
}

func (sm *SM) lineArrived(wi int) {
	w := &sm.warps[wi]
	if w.outstanding > 0 {
		w.outstanding--
	}
	if w.outstanding == 0 && w.state == smWarpMemWait {
		w.state = smWarpReady
		sm.runnable.PushBack(wi)
	}
}

// DeliverReply processes a read reply arriving at cycle now: installs the
// line (evicting the set's least recently used line when the set is full),
// records the round-trip latency and wakes every warp waiting on it.
func (sm *SM) DeliverReply(r *memreq.Request, now uint64) {
	if now >= r.Issued {
		lat := now - r.Issued
		sm.stats.MemLat.Add(float64(lat))
		sm.stats.LatHist.Add(lat)
	}
	set := sm.amap.CacheSet(r.Addr, len(sm.l1Sets))
	if lines := sm.l1Sets[set]; len(lines) >= sm.cfg.L1.Assoc {
		sm.l1Sets[set] = append(lines[:0], lines[1:]...)
	}
	sm.l1Sets[set] = append(sm.l1Sets[set], r.Addr)
	ws := sm.waiters[r.Addr]
	delete(sm.waiters, r.Addr)
	for _, wi := range ws {
		sm.lineArrived(wi)
	}
}
