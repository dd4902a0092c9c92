package main

import (
	"time"

	"dasesim/internal/cache"
	"dasesim/internal/config"
	"dasesim/internal/dram"
	"dasesim/internal/icnt"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
	"dasesim/internal/smcore"
)

// The cycle engine's layers are measured from outside, each alone: the
// workload's kernels run on stand-alone smcore.SMs whose loads are answered
// by a stub after the workload's own measured mean round-trip latency, the
// requests the SMs emit are recorded, and that fixed trace is replayed into
// an L2-configured cache.Cache per partition, the dram.Controllers and the
// icnt.ICNT. Every figure is host nanoseconds per simulated cycle of the
// whole GPU, so it divides by sim.step_ns into a share. The shares are
// estimates — a fixed trace does not feed back into the SMs — which is why
// the residual is printed instead of forced to zero.

// traceReq is one request an SM pushed toward memory.
type traceReq struct {
	cycle uint64
	addr  uint64
	app   memreq.AppID
	sm    int
	write bool
}

type layerTimes struct {
	smNs   float64 // smcore: Cycle + DeliverReply, all SMs, per simulated cycle
	issued uint64

	cacheNs       float64 // L2: AccessIdx + FillIdx, per simulated cycle
	cacheAccessNs float64 // ... per call
	l2HitRatio    float64

	dramNs      float64 // Controller.Cycle + Enqueue + Replies, all controllers, per cycle
	dramReqs    uint64
	rowHitRatio float64

	icntNs    float64 // crossbar sends and receives, per cycle
	icntHopNs float64 // ... per send/receive pair
}

// replayLayers measures each layer over the given number of simulated
// cycles. lat is the workload's measured mean load round trip per app and
// dramPerCycle its measured DRAM requests per cycle; both tie the replay to
// the rates the real run saw.
func replayLayers(cfg config.Config, ps []kernels.Profile, alloc []int, seed uint64, lat []uint64, dramPerCycle float64, cycles uint64, tr *tracer) layerTimes {
	amap := memreq.NewAddrMap(cfg.L2.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
	var ly layerTimes
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(cycles) }

	t0 := time.Now()
	trace, issued := replaySMs(cfg, amap, ps, alloc, seed, lat, cycles)
	t1 := time.Now()
	tr.add("smcore.replay", -1, -1, t0, t1)
	ly.smNs, ly.issued = per(t1.Sub(t0)), issued

	t0 = time.Now()
	misses, calls, hitRatio := replayCache(cfg, amap, len(ps), trace)
	t1 = time.Now()
	tr.add("cache.replay", -1, -1, t0, t1)
	ly.cacheNs, ly.cacheAccessNs, ly.l2HitRatio = per(t1.Sub(t0)), meanNs(t1.Sub(t0), calls), hitRatio

	// The stub does not push back, so the SMs may emit misses faster than
	// the real memory system took them. Stretch the miss stream's clock to
	// the real run's DRAM request rate before replaying it.
	dramCycles := cycles
	if dramPerCycle > 0 {
		stretch := float64(len(misses)) / float64(cycles) / dramPerCycle
		for i := range misses {
			misses[i].cycle = uint64(float64(misses[i].cycle) * stretch)
		}
		dramCycles = uint64(float64(cycles) * stretch)
	}
	t0 = time.Now()
	ly.dramReqs, ly.rowHitRatio = replayDRAM(cfg, amap, len(ps), misses, dramCycles)
	t1 = time.Now()
	tr.add("dram.replay", -1, -1, t0, t1)
	ly.dramNs = float64(t1.Sub(t0).Nanoseconds()) / float64(dramCycles)

	t0 = time.Now()
	hops := replayICNT(cfg, amap, trace, cycles)
	t1 = time.Now()
	tr.add("icnt.replay", -1, -1, t0, t1)
	ly.icntNs, ly.icntHopNs = per(t1.Sub(t0)), meanNs(t1.Sub(t0), hops)
	return ly
}

// blockSource hands one application's thread blocks to its SMs the way the
// engine's dispatcher does: a new launch begins once every block of the
// current one has retired.
type blockSource struct {
	prof       *kernels.Profile
	base, seed uint64
	next       int
	inFlight   int
	launches   int
}

func (b *blockSource) WarpsPerBlock() int { return b.prof.WarpsPerBlock }

func (b *blockSource) BlockFinished() { b.inFlight-- }

func (b *blockSource) NextBlock() ([]*kernels.WarpStream, bool) {
	if b.next >= b.prof.Blocks {
		if b.inFlight > 0 {
			return nil, false
		}
		b.launches++
		b.next = 0
	}
	blockID := uint64(b.launches)<<32 | uint64(b.next)
	b.next++
	b.inFlight++
	streams := make([]*kernels.WarpStream, b.prof.WarpsPerBlock)
	for w := range streams {
		streams[w] = kernels.NewWarpStream(b.prof, b.base, blockID, w, b.seed)
	}
	return streams, true
}

// pendingReply is a load waiting out the stub latency.
type pendingReply struct {
	req *memreq.Request
	due uint64
}

// replaySMs runs cfg.NumSMs stand-alone SMs for the given cycles and returns
// every request they emitted. Loads come back after lat[app] cycles.
func replaySMs(cfg config.Config, amap memreq.AddrMap, ps []kernels.Profile, alloc []int, seed uint64, lat []uint64, cycles uint64) ([]traceReq, uint64) {
	pool := &memreq.Pool{}
	var sms []*smcore.SM
	for a := range ps {
		src := &blockSource{
			prof: &ps[a],
			base: (uint64(a) + 1) << 40,
			seed: seed ^ (uint64(a)+1)*0x9e3779b97f4a7c15,
		}
		for j := 0; j < alloc[a]; j++ {
			sm := smcore.New(len(sms), cfg, amap, pool)
			sm.Assign(memreq.AppID(a), src)
			sms = append(sms, sm)
		}
	}
	trace := make([]traceReq, 0, 2*cycles)
	pending := make([][]pendingReply, len(ps)) // per app, so each queue is in due order
	for now := uint64(0); now < cycles; now++ {
		for _, sm := range sms {
			sm.Cycle(now)
		}
		for _, sm := range sms {
			for k := 0; k < 2 && sm.OutboxLen() > 0; k++ { // the engine injects two per SM per cycle
				r := sm.PopOutbox()
				trace = append(trace, traceReq{cycle: now, addr: r.Addr, app: r.App, sm: r.SM, write: r.Kind == memreq.Write})
				if r.Kind == memreq.Write {
					pool.Put(r)
				} else {
					pending[r.App] = append(pending[r.App], pendingReply{r, now + lat[r.App]})
				}
			}
		}
		for a := range pending {
			q := pending[a]
			for len(q) > 0 && q[0].due <= now {
				sms[q[0].req.SM].DeliverReply(q[0].req, now)
				q = q[1:]
			}
			pending[a] = q
		}
	}
	var issued uint64
	for _, sm := range sms {
		issued += sm.Stats().Issued
	}
	return trace, issued
}

// replayCache pushes the trace through one L2 slice per partition. A miss
// holds its MSHR until l2FillDelay later accesses of the slice have passed
// (or the MSHRs run out), then fills. It returns the requests that went on
// to DRAM — misses and dirty write-backs — stamped with their trace cycle.
func replayCache(cfg config.Config, amap memreq.AddrMap, numApps int, trace []traceReq) (toDRAM []traceReq, calls int, hitRatio float64) {
	const l2FillDelay = 64
	type miss struct {
		req traceReq
		at  int // the slice's access count when the miss happened
	}
	type slice struct {
		c        *cache.Cache
		open     []miss
		accesses int
	}
	slices := make([]slice, cfg.NumMCs)
	for i := range slices {
		slices[i].c = cache.NewCache(cfg.L2, numApps)
	}
	var hits, accesses int
	fillOldest := func(s *slice, now uint64) {
		m := s.open[0]
		s.open = s.open[1:]
		set := amap.CacheSet(m.req.addr, s.c.Sets())
		_, _, wb, _ := s.c.FillIdx(m.req.app, set, m.req.addr, m.req.write)
		calls++
		if wb.Valid {
			toDRAM = append(toDRAM, traceReq{cycle: now, addr: wb.Addr, app: wb.Owner, sm: -1, write: true})
		}
	}
	for _, r := range trace {
		s := &slices[amap.Partition(r.addr)]
		for len(s.open) > 0 && s.accesses-s.open[0].at >= l2FillDelay {
			fillOldest(s, r.cycle)
		}
		set := amap.CacheSet(r.addr, s.c.Sets())
		res, _ := s.c.AccessIdx(r.app, set, r.addr, r.write)
		calls++
		for res == cache.Blocked && len(s.open) > 0 {
			fillOldest(s, r.cycle)
			res, _ = s.c.AccessIdx(r.app, set, r.addr, r.write)
			calls++
		}
		s.accesses++
		accesses++
		switch res {
		case cache.Hit:
			hits++
		case cache.Miss:
			s.open = append(s.open, miss{r, s.accesses})
			toDRAM = append(toDRAM, r)
		}
	}
	if accesses > 0 {
		hitRatio = float64(hits) / float64(accesses)
	}
	return toDRAM, calls, hitRatio
}

// replayDRAM feeds each controller its share of the miss stream at the
// recorded cycles (held back while the queue is full, as the partition
// does) and cycles every controller once per simulated cycle.
func replayDRAM(cfg config.Config, amap memreq.AddrMap, numApps int, misses []traceReq, cycles uint64) (served uint64, rowHitRatio float64) {
	pool := &memreq.Pool{}
	mcs := make([]*dram.Controller, cfg.NumMCs)
	queues := make([][]traceReq, cfg.NumMCs)
	for i := range mcs {
		mcs[i] = dram.NewController(cfg.Mem, amap, i, numApps)
	}
	for _, m := range misses {
		p := amap.Partition(m.addr)
		queues[p] = append(queues[p], m)
	}
	for now := uint64(0); now < cycles; now++ {
		for i, mc := range mcs {
			q := queues[i]
			for len(q) > 0 && q[0].cycle <= now && mc.CanAccept() {
				r := pool.Get()
				r.App, r.SM, r.Addr, r.Issued = q[0].app, q[0].sm, q[0].addr, now
				r.Kind = memreq.Read
				if q[0].write {
					r.Kind = memreq.Write
				}
				mc.Enqueue(r)
				q = q[1:]
			}
			queues[i] = q
			mc.Cycle(now)
			for _, r := range mc.Replies() {
				pool.Put(r)
			}
		}
	}
	var hits, total uint64
	for _, mc := range mcs {
		for a := 0; a < numApps; a++ {
			c := mc.Counters(memreq.AppID(a))
			served += c.Served
			hits += c.RowHits
			total += c.RowHits + c.RowMisses
		}
	}
	if total > 0 {
		rowHitRatio = float64(hits) / float64(total)
	}
	return served, rowHitRatio
}

// replayICNT sends every traced request across the crossbar to its
// partition and every load straight back to its SM, polling each port once
// per cycle as the engine does. It returns the number of send/receive pairs.
func replayICNT(cfg config.Config, amap memreq.AddrMap, trace []traceReq, cycles uint64) (hops int) {
	ic := icnt.New(cfg.ICNT, cfg.NumSMs, cfg.NumMCs, cfg.L2.LineBytes)
	pool := &memreq.Pool{}
	back := make([][]*memreq.Request, cfg.NumMCs) // loads waiting for reply-queue space
	next := 0
	for now := uint64(0); now < cycles; now++ {
		for next < len(trace) && trace[next].cycle <= now {
			t := &trace[next]
			part := amap.Partition(t.addr)
			if !ic.CanSendToMem(part) {
				break
			}
			r := pool.Get()
			r.App, r.SM, r.Addr, r.Issued = t.app, t.sm, t.addr, now
			r.Kind = memreq.Read
			if t.write {
				r.Kind = memreq.Write
			}
			ic.SendToMem(part, r, now)
			next++
		}
		for part := range back {
			for k := 0; k < 2; k++ { // the partition's L2 accepts two per cycle
				r := ic.RecvAtMem(part, now)
				if r == nil {
					break
				}
				hops++
				if r.Kind == memreq.Write {
					pool.Put(r)
				} else {
					back[part] = append(back[part], r)
				}
			}
			q := back[part]
			for k := 0; k < 4 && len(q) > 0 && ic.CanSendToSM(q[0].SM); k++ {
				ic.SendToSM(part, q[0], now)
				q = q[1:]
			}
			back[part] = q
		}
		for sm := 0; sm < cfg.NumSMs; sm++ {
			for r := ic.RecvAtSM(sm, now); r != nil; r = ic.RecvAtSM(sm, now) {
				hops++
				pool.Put(r)
			}
		}
	}
	return hops
}
