package dram

import (
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/memreq"
	"dasesim/internal/refmodel"
)

// fuzzMemConfig is a deliberately small controller so short fuzz inputs reach
// full queues, row conflicts, activation throttling, and refresh.
func fuzzMemConfig() config.MemConfig {
	return config.MemConfig{
		NumBanks:   4,
		RowBytes:   512,
		TRCD:       3,
		TRP:        3,
		TCAS:       2,
		TBurst:     4,
		TRRD:       2,
		TFAW:       10,
		QueueDepth: 16,
		TREFI:      200,
		TRFC:       20,
	}
}

const fuzzApps = 3

func fuzzAddrMap() memreq.AddrMap { return memreq.NewAddrMap(128, 1, 4, 512) }

// fuzzAddr spreads the operand byte across banks and rows: line addresses
// 0..255 cover every bank with several rows each under fuzzAddrMap.
func fuzzAddr(b byte) uint64 { return uint64(b) * 128 }

// FuzzControllerCounts drives a controller with an enqueue/cycle stream and,
// after every operation, recounts the bank queues from scratch with
// refmodel.CountQueued, comparing against the incrementally maintained
// queuedPerBank counters and per-app queued-bank masks (and the rest of the
// controller's bookkeeping via CheckInvariants). Ops: byte%2 — 0 enqueue (operand byte: address and app),
// 1 advance one cycle.
func FuzzControllerCounts(f *testing.F) {
	f.Add([]byte("0a0b0c0d1111111111111111"))              // burst then drain
	f.Add([]byte("0a10b10c10d10e10f10g10h1"))              // interleaved
	f.Add([]byte("0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a1")) // fill one bank to the queue cap
	f.Add([]byte("11111111111111111111111111111111"))      // idle cycles only
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewController(fuzzMemConfig(), fuzzAddrMap(), 0, fuzzApps)
		var now uint64
		for i := 0; i < len(data); i++ {
			switch data[i] % 2 {
			case 0: // enqueue
				if i+1 >= len(data) {
					return
				}
				i++
				if !c.CanAccept() {
					continue
				}
				b := data[i]
				c.Enqueue(&memreq.Request{App: memreq.AppID(b % fuzzApps), Addr: fuzzAddr(b)})
			case 1: // cycle
				c.Cycle(now)
				now++
				c.Replies() // drain completions like the partition does
			}
			recount := refmodel.CountQueued(c.queues, fuzzApps, c.cfg.NumBanks)
			for k, want := range recount {
				app, bank := k/c.cfg.NumBanks, k%c.cfg.NumBanks
				if got := c.queuedPerBank[k]; got != want {
					t.Fatalf("op %d: queuedPerBank[app %d][bank %d] = %d, naive recount %d", i, app, bank, got, want)
				}
				if got := c.queuedMask[app]>>uint(bank)&1 == 1; got != (want > 0) {
					t.Fatalf("op %d: queuedMask[app %d] bit %d is %v, naive recount %d", i, app, bank, got, want)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}

// schedulerView snapshots the banks as refmodel.FRFCFSPick sees them at now.
// With midCycle it is the view the pick inside Cycle(now) will have: the
// transfers finishing at now retired and, if a refresh is due at now, every
// row closed and every bank fenced past now (TRFC > 0).
func schedulerView(c *Controller, now uint64, midCycle bool) []refmodel.FRFCFSBank {
	refresh := midCycle && c.nextRefresh > 0 && now >= c.nextRefresh
	banks := make([]refmodel.FRFCFSBank, len(c.banks))
	for bi := range c.banks {
		bnk := &c.banks[bi]
		idle := bnk.cur == nil || (midCycle && now >= bnk.busyUntil)
		rb := refmodel.FRFCFSBank{
			Free:    idle && now >= bnk.readyAt && !refresh,
			RowOpen: bnk.rowOpen && !refresh,
			OpenRow: bnk.openRow,
		}
		for _, r := range c.queues[bi] {
			// While buffered, BankEnter holds the arrival sequence.
			rb.Queue = append(rb.Queue, refmodel.FRFCFSReq{App: r.App, Addr: r.Addr, Seq: r.BankEnter})
		}
		banks[bi] = rb
	}
	return banks
}

// referencePick is the controller's scheduling policy over the reference
// pick: plain FR-FCFS, or under AppAwareRR the first app in rotation the
// reference finds a request for.
func referencePick(c *Controller, banks []refmodel.FRFCFSBank, now uint64) (int, int) {
	actOK := c.actAllowed(now)
	if !c.cfg.AppAwareRR {
		return refmodel.FRFCFSPick(c.amap, banks, c.prio, memreq.InvalidApp, actOK, rowHitLookahead)
	}
	for k := 0; k < c.numApps; k++ {
		app := memreq.AppID((int(c.rrNext) + k) % c.numApps)
		if bi, idx := refmodel.FRFCFSPick(c.amap, banks, c.prio, app, actOK, rowHitLookahead); bi >= 0 {
			return bi, idx
		}
	}
	return -1, -1
}

// FuzzFRFCFS drives a controller to arbitrary reachable states and holds the
// event-driven scheduler (cached Request.Row, cached per-bank hit index,
// pending-bank mask, completion gate) to refmodel.FRFCFSPick, which scans
// every bank and recomputes every row address from scratch. Two checks: each
// Cycle must move into a bank exactly the request the reference names on the
// state that cycle's pick sees, and nothing when it names none; and after
// every op the pure pick must match the reference for every app restriction
// the engine can ask for. Ops: byte%3 — 0 enqueue (operand byte), 1 advance
// one cycle, 2 set priority app (operand byte; %4 == 3 clears it). appRR
// turns on application-aware round-robin.
func FuzzFRFCFS(f *testing.F) {
	f.Add([]byte("0a0b0c0d111111110e0f111111"), false)    // plain FR-FCFS
	f.Add([]byte("2a0a0b0c11112b0d0e11112d11"), false)    // priority-app churn
	f.Add([]byte("0a0i0q0y111111110a0i111111"), false)    // same bank, distinct rows (conflicts)
	f.Add([]byte("0a0a0a0a0b0b0b0b1111111111111"), false) // row hits vs oldest arrival
	f.Add([]byte("0a0b0d0e0a0b111111110d0e1111"), true)   // round-robin between apps
	f.Fuzz(func(t *testing.T, data []byte, appRR bool) {
		cfg := fuzzMemConfig()
		cfg.AppAwareRR = appRR
		c := NewController(cfg, fuzzAddrMap(), 0, fuzzApps)
		var now uint64
		for i := 0; i < len(data); i++ {
			switch data[i] % 3 {
			case 0: // enqueue
				if i+1 >= len(data) {
					return
				}
				i++
				if !c.CanAccept() {
					continue
				}
				b := data[i]
				c.Enqueue(&memreq.Request{App: memreq.AppID(b % fuzzApps), Addr: fuzzAddr(b)})
			case 1: // cycle
				var want *memreq.Request
				wb, wi := referencePick(c, schedulerView(c, now, true), now)
				if wb >= 0 {
					want = c.queues[wb][wi]
				}
				queued := c.queued
				c.Cycle(now)
				switch {
				case want == nil && c.queued != queued:
					t.Fatalf("op %d cycle %d: reference names no request, controller scheduled one", i, now)
				case want != nil && (c.queued != queued-1 || c.banks[wb].cur != want || want.BankEnter != now):
					t.Fatalf("op %d cycle %d: reference names (%d,%d) %v, bank holds %v (queued %d -> %d)",
						i, now, wb, wi, want, c.banks[wb].cur, queued, c.queued)
				}
				now++
				c.Replies()
			case 2: // priority app
				if i+1 >= len(data) {
					return
				}
				i++
				app := memreq.AppID(data[i] % 4)
				if app == fuzzApps {
					app = memreq.InvalidApp
				}
				c.SetPriorityApp(app)
			}

			banks := schedulerView(c, now, false)
			actOK := c.actAllowed(now)
			for only := memreq.AppID(-1); only < fuzzApps; only++ {
				gb, gi := c.pickFRFCFS(now, only)
				wb, wi := refmodel.FRFCFSPick(c.amap, banks, c.prio, only, actOK, rowHitLookahead)
				if gb != wb || gi != wi {
					t.Fatalf("op %d (only=%d prio=%d actOK=%v): optimized pick (%d,%d), reference (%d,%d)",
						i, only, c.prio, actOK, gb, gi, wb, wi)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}
