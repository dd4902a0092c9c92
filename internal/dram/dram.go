// Package dram models one GDDR memory controller per memory partition: a
// request buffer, an FR-FCFS scheduler, NumBanks DRAM banks with row buffers
// and tRCD/tRP/CAS timing, and a shared data bus that moves one cache line
// per TBurst core cycles.
//
// The scheduler is event-driven: what a cycle needs to know about a bank —
// its first row hit inside the lookahead window, whether it is free with work
// queued, when the next transfer completes, which banks an app queues or
// executes on — is kept current at the four events that change it (Enqueue,
// schedule, completion, refresh) and read, not rescanned, every cycle. DESIGN.md §10.1 lists which event invalidates which field;
// CheckInvariants recomputes each of them from scratch.
//
// Besides timing, the controller maintains the per-application hardware
// counters the paper's estimators read (Table I): served-request counters,
// total bank-occupancy time (TimeRequest), bank-level-parallelism samples
// (BLP and BLPAccess), last-access-row registers for extra-row-buffer-miss
// detection (ERBMiss), and the DRAM bandwidth decomposition of Figure 2(b)
// (per-app data cycles, wasted timing-constraint cycles, idle cycles).
package dram

import (
	"fmt"
	"math/bits"

	"dasesim/internal/config"
	"dasesim/internal/memreq"
)

// blpSamplePeriod is how often (in core cycles) the controller samples
// bank-level parallelism. Real hardware samples continuously; sampling every
// few cycles is statistically identical and much cheaper to simulate.
const blpSamplePeriod = 8

// AppCounters are the per-application DASE hardware counters of one memory
// controller, cumulative since the last ResetCounters.
type AppCounters struct {
	// Served counts requests whose data transfer completed (Request_i).
	Served uint64
	// TimeInBanks sums, over served requests, the cycles from bank
	// scheduling to data completion (the TimeRequest counter of Eq. 12).
	TimeInBanks uint64
	// ERBMiss counts extra row-buffer misses: row misses to a row equal to
	// the app's last accessed row in that bank (Eq. 10).
	ERBMiss uint64
	// RowHits / RowMisses classify served requests by row-buffer outcome.
	RowHits   uint64
	RowMisses uint64
	// BLPSum accumulates, at each sample with outstanding work, the number
	// of banks executing or targeted by the app's queued requests (BLP_i).
	BLPSum uint64
	// BLPAccessSum accumulates banks currently executing the app's requests
	// (BLPAccess_i).
	BLPAccessSum uint64
	// BLPBlockedSum accumulates banks the app is queued on while another
	// app's request occupies them — direct bank-interference evidence,
	// zero when the app runs alone.
	BLPBlockedSum uint64
	// BLPSamples counts samples taken while the app had outstanding work.
	BLPSamples uint64
	// DataBusCycles is the data-bus time spent transferring the app's lines.
	DataBusCycles uint64
	// Enqueued counts requests accepted into the request buffer.
	Enqueued uint64
}

// BusCounters decompose the controller's data-bus bandwidth, as in Fig. 2(b).
type BusCounters struct {
	// Cycles is the total cycles observed.
	Cycles uint64
	// Idle counts cycles with no request anywhere in the controller.
	Idle uint64
	// Data cycles are accounted per app in AppCounters.DataBusCycles; the
	// remainder (Cycles - Idle - ΣData) is Wasted-BW: bus time lost to
	// DRAM timing constraints (ACT/PRE/CAS gaps) while work was pending.
}

// Wasted derives the timing-constraint waste given the summed per-app data
// cycles of the same window.
func (b BusCounters) Wasted(totalData uint64) uint64 {
	if b.Idle+totalData >= b.Cycles {
		return 0
	}
	return b.Cycles - b.Idle - totalData
}

type bank struct {
	openRow   uint64
	readyAt   uint64 // earliest cycle the next command may start
	busyUntil uint64 // current request completes (data fully transferred)
	cur       *memreq.Request
	rowOpen   bool
	curRowHit bool
	// hit is the queue index of the first request inside the lookahead
	// window whose row is the open row, or -1 (always -1 while the row is
	// closed). It changes only when the bank's queue or open row does.
	hit int8
}

// maxApps bounds the applications one controller serves: the per-app bank
// masks are fixed arrays so sampling BLP allocates nothing. sim.New rejects
// larger workloads before a controller is built.
const maxApps = 16

// Controller is one memory partition's DRAM controller.
type Controller struct {
	cfg     config.MemConfig
	amap    memreq.AddrMap
	id      int
	numApps int

	banks  []bank
	queues [][]*memreq.Request // per-bank request queues
	queued int                 // total buffered requests
	seq    uint64              // enqueue sequence for FCFS ordering

	// queuedPerBank[app*NumBanks+bank] counts the app's buffered requests
	// per bank, maintained incrementally so BLP sampling never rescans the
	// queues.
	queuedPerBank []int32

	// Bank masks, bit i = bank i (config.Validate caps NumBanks at 64).
	// pending: no request in service and a non-empty queue — the only banks
	// the scheduler visits. busy: a request in service. queuedMask[app]:
	// queuedPerBank > 0. execMask[app]: in service for that app.
	pending    uint64
	busy       uint64
	queuedMask [maxApps]uint64
	execMask   [maxApps]uint64
	// nextDone is the earliest busyUntil over the busy banks; the completion
	// sweep is skipped until now reaches it. Meaningless while busy == 0.
	nextDone uint64

	// lastRow[app*NumBanks+bank] is the app's last accessed row in bank
	// (the last-access-row registers of Table I).
	lastRow      []uint64
	lastRowValid []bool

	busBusyUntil uint64

	// Activation throttling (tRRD/tFAW): lastActs holds the most recent
	// four ACT issue times, lastActs[0] being the oldest; actCount says how
	// many entries are real.
	lastActs [4]uint64
	actCount int

	outstanding []int // per-app requests in queue or in banks

	prio memreq.AppID // app whose requests are scheduled first (MISE/ASM)

	// Application-aware round-robin scheduling state (AppAwareRR).
	rrNext memreq.AppID

	// Refresh state: the next refresh deadline (0 disables).
	nextRefresh uint64
	// Refreshes counts completed refresh operations.
	Refreshes uint64

	apps []AppCounters
	bus  BusCounters

	replies []*memreq.Request
}

// NewController builds a controller for partition id serving numApps apps.
func NewController(cfg config.MemConfig, amap memreq.AddrMap, id, numApps int) *Controller {
	if numApps > maxApps || cfg.NumBanks > 64 {
		panic(fmt.Sprintf("dram: %d apps x %d banks exceeds the %d x 64 the bank masks hold", numApps, cfg.NumBanks, maxApps))
	}
	banks := make([]bank, cfg.NumBanks)
	for i := range banks {
		banks[i].hit = -1
	}
	return &Controller{
		cfg:           cfg,
		amap:          amap,
		id:            id,
		numApps:       numApps,
		banks:         banks,
		queues:        make([][]*memreq.Request, cfg.NumBanks),
		queuedPerBank: make([]int32, numApps*cfg.NumBanks),
		lastRow:       make([]uint64, numApps*cfg.NumBanks),
		lastRowValid:  make([]bool, numApps*cfg.NumBanks),
		outstanding:   make([]int, numApps),
		prio:          memreq.InvalidApp,
		apps:          make([]AppCounters, numApps),
		nextRefresh:   cfg.TREFI,
	}
}

// CanAccept reports whether the request buffer has room.
func (c *Controller) CanAccept() bool { return c.queued < c.cfg.QueueDepth }

// Enqueue adds a request to its bank's queue. The caller must have checked
// CanAccept. The request's BankEnter field temporarily stores its arrival
// sequence number for FCFS ordering until it is scheduled into the bank.
func (c *Controller) Enqueue(r *memreq.Request) {
	b := c.amap.Bank(r.Addr)
	c.seq++
	r.BankEnter = c.seq
	// Cache the row address once: the FR-FCFS scheduler compares it against
	// open rows for every queued candidate every cycle, and AddrMap.Row's
	// divisions dominated the controller's profile when recomputed there.
	r.Row = c.amap.Row(r.Addr)
	bnk := &c.banks[b]
	bit := uint64(1) << uint(b)
	if pos := len(c.queues[b]); bnk.hit < 0 && pos < rowHitLookahead && bnk.rowOpen && r.Row == bnk.openRow {
		bnk.hit = int8(pos)
	}
	c.queues[b] = append(c.queues[b], r)
	c.queued++
	if bnk.cur == nil {
		c.pending |= bit
	}
	qi := int(r.App)*c.cfg.NumBanks + b
	if c.queuedPerBank[qi] == 0 {
		c.queuedMask[r.App] |= bit
	}
	c.queuedPerBank[qi]++
	c.outstanding[r.App]++
	c.apps[r.App].Enqueued++
}

// QueueLen returns the number of buffered (not yet bank-scheduled) requests.
func (c *Controller) QueueLen() int { return c.queued }

// Outstanding returns the app's requests currently queued or in service.
func (c *Controller) Outstanding(app memreq.AppID) int { return c.outstanding[app] }

// SetPriorityApp makes the scheduler serve the given app's requests first
// (the highest-priority epoch mechanism MISE and ASM rely on). Pass
// memreq.InvalidApp to restore plain FR-FCFS.
func (c *Controller) SetPriorityApp(app memreq.AppID) { c.prio = app }

// PriorityApp returns the currently prioritized app, or InvalidApp.
func (c *Controller) PriorityApp() memreq.AppID { return c.prio }

// Counters returns a copy of the app's cumulative counters.
func (c *Controller) Counters(app memreq.AppID) AppCounters { return c.apps[app] }

// Bus returns a copy of the bandwidth-decomposition counters.
func (c *Controller) Bus() BusCounters { return c.bus }

// ResetCounters zeroes all per-app and bus counters (start of an estimation
// interval). Bank and row-buffer state persists.
func (c *Controller) ResetCounters() {
	for i := range c.apps {
		c.apps[i] = AppCounters{}
	}
	c.bus = BusCounters{}
}

// Replies drains and returns the requests completed during the last Cycle.
func (c *Controller) Replies() []*memreq.Request {
	r := c.replies
	c.replies = c.replies[:0]
	return r
}

// Cycle advances the controller by one core cycle: completes transfers,
// schedules at most one new request into a bank (FR-FCFS), and updates the
// accounting counters.
func (c *Controller) Cycle(now uint64) {
	// 0. Periodic all-bank refresh: stall every bank for TRFC and close
	// all rows. Banks mid-transfer finish first (refresh starts after the
	// last busyUntil).
	if c.nextRefresh > 0 && now >= c.nextRefresh {
		start := now
		for i := range c.banks {
			if c.banks[i].busyUntil > start {
				start = c.banks[i].busyUntil
			}
		}
		end := start + c.cfg.TRFC
		for i := range c.banks {
			b := &c.banks[i]
			b.rowOpen = false
			b.hit = -1
			if b.readyAt < end {
				b.readyAt = end
			}
		}
		c.Refreshes++
		c.nextRefresh += c.cfg.TREFI
	}

	// 1. Complete requests whose data transfer has finished.
	if c.busy != 0 && now >= c.nextDone {
		c.complete(now)
	}

	// 2. FR-FCFS: pick one request to schedule into its bank this cycle.
	if bi, idx := c.pickRequest(now); bi >= 0 {
		c.schedule(bi, idx, now)
	}

	// 3. Bandwidth decomposition: only idle is observable per cycle (no
	// request anywhere); data is accounted at scheduling time and waste is
	// derived (see BusCounters).
	c.bus.Cycles++
	if now >= c.busBusyUntil && c.queued == 0 && c.busy == 0 {
		c.bus.Idle++
	}

	// 4. BLP sampling.
	if now%blpSamplePeriod == 0 {
		c.sampleBLP()
	}
}

// complete retires, in ascending bank order, every in-service request whose
// transfer has finished, and resets nextDone to the earliest one left.
func (c *Controller) complete(now uint64) {
	next := ^uint64(0)
	for m := c.busy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b := &c.banks[i]
		if now < b.busyUntil {
			if b.busyUntil < next {
				next = b.busyUntil
			}
			continue
		}
		r := b.cur
		ac := &c.apps[r.App]
		ac.Served++
		ac.TimeInBanks += b.busyUntil - r.BankEnter
		if b.curRowHit {
			ac.RowHits++
		} else {
			ac.RowMisses++
		}
		c.outstanding[r.App]--
		c.replies = append(c.replies, r)
		b.cur = nil
		bit := uint64(1) << uint(i)
		c.busy &^= bit
		c.execMask[r.App] &^= bit
		if len(c.queues[i]) > 0 {
			c.pending |= bit
		}
	}
	c.nextDone = next
}

// actAllowed reports whether a row activation may issue at now (tRRD from
// the last ACT, tFAW from the fourth-last).
func (c *Controller) actAllowed(now uint64) bool {
	if c.actCount >= 1 && c.cfg.TRRD > 0 && now < c.lastActs[3]+c.cfg.TRRD {
		return false
	}
	if c.actCount >= 4 && c.cfg.TFAW > 0 && now < c.lastActs[0]+c.cfg.TFAW {
		return false
	}
	return true
}

func (c *Controller) recordAct(now uint64) {
	copy(c.lastActs[:], c.lastActs[1:])
	c.lastActs[3] = now
	if c.actCount < 4 {
		c.actCount++
	}
}

// rowHitLookahead bounds how deep into a bank queue the scheduler searches
// for a row-buffer hit (FR-FCFS with bounded reordering).
const rowHitLookahead = 8

// pickRequest selects the (bank, queue index) of the request to schedule,
// or (-1, -1), according to the active scheduling policy.
func (c *Controller) pickRequest(now uint64) (int, int) {
	if c.pending == 0 {
		return -1, -1
	}
	if !c.cfg.AppAwareRR || c.numApps <= 1 {
		return c.pickFRFCFS(now, memreq.InvalidApp)
	}
	// Application-aware round-robin: serve the next application (in
	// rotation) that has an eligible request, FR-FCFS within it.
	for k := 0; k < c.numApps; k++ {
		app := memreq.AppID((int(c.rrNext) + k) % c.numApps)
		if c.outstanding[app] == 0 {
			continue
		}
		if bi, idx := c.pickFRFCFS(now, app); bi >= 0 {
			c.rrNext = memreq.AppID((int(app) + 1) % c.numApps)
			return bi, idx
		}
	}
	return -1, -1
}

// pickFRFCFS selects per FR-FCFS, optionally restricted to one application
// (only != InvalidApp). Per free bank the candidate is the first row hit
// within the lookahead window, else the head; across banks the order is
// priority app > row hit > oldest arrival. Requests needing an activation
// are ineligible while the tRRD/tFAW window forbids one.
//
// Only pending banks are visited, in ascending bank order, and a later bank
// replaces the incumbent only on strict improvement — the order and rule of
// a loop over every bank. The unrestricted row-hit candidate is the bank's
// cached hit index; the restricted picks (a priority app, a round-robin app)
// ask for the first match of one app, which the cache does not hold, so they
// scan the window.
func (c *Controller) pickFRFCFS(now uint64, only memreq.AppID) (int, int) {
	bestBank, bestIdx := -1, -1
	var bestSeq uint64
	bestHit := false
	bestPrio := false
	actOK := c.actAllowed(now)
	// The prioritized app's oldest request in a bank preempts the bank-local
	// FR-FCFS choice (MISE/ASM's highest-priority epochs).
	scanPrio := c.prio != memreq.InvalidApp && (only == memreq.InvalidApp || only == c.prio)
	for m := c.pending; m != 0; m &= m - 1 {
		bi := bits.TrailingZeros64(m)
		bnk := &c.banks[bi]
		// Without a row hit in its window every candidate of this bank —
		// the priority app's included — needs an activation.
		if now < bnk.readyAt || (bnk.hit < 0 && !actOK) {
			continue
		}
		q := c.queues[bi]
		idx := -1
		hit := false
		if scanPrio {
			for k := 0; k < len(q) && k < rowHitLookahead; k++ {
				if q[k].App == c.prio {
					h := bnk.rowOpen && q[k].Row == bnk.openRow
					if !h && !actOK {
						break
					}
					idx, hit = k, h
					break
				}
			}
		}
		if idx == -1 && bnk.hit >= 0 {
			if only == memreq.InvalidApp {
				idx, hit = int(bnk.hit), true
			} else {
				// No request ahead of the cached index is a hit for anyone.
				for k := int(bnk.hit); k < len(q) && k < rowHitLookahead; k++ {
					if q[k].App == only && q[k].Row == bnk.openRow {
						idx, hit = k, true
						break
					}
				}
			}
		}
		if idx == -1 {
			if !actOK {
				continue // an ACT is needed and the power window forbids it
			}
			if only == memreq.InvalidApp {
				idx = 0
			} else {
				for k := 0; k < len(q) && k < rowHitLookahead; k++ {
					if q[k].App == only {
						idx = k
						break
					}
				}
				if idx == -1 {
					continue
				}
			}
		}
		r := q[idx]
		prio := c.prio != memreq.InvalidApp && r.App == c.prio
		better := bestBank == -1 ||
			(prio && !bestPrio) ||
			(prio == bestPrio && hit && !bestHit) ||
			(prio == bestPrio && hit == bestHit && r.BankEnter < bestSeq)
		if better {
			bestBank, bestIdx, bestSeq, bestHit, bestPrio = bi, idx, r.BankEnter, hit, prio
		}
	}
	return bestBank, bestIdx
}

// schedule moves the request at queues[bi][idx] into its bank and computes
// its service timeline.
func (c *Controller) schedule(bi, idx int, now uint64) {
	q := c.queues[bi]
	r := q[idx]
	q = append(q[:idx], q[idx+1:]...)
	c.queues[bi] = q
	c.queued--
	bit := uint64(1) << uint(bi)
	li := int(r.App)*c.cfg.NumBanks + bi
	c.queuedPerBank[li]--
	if c.queuedPerBank[li] == 0 {
		c.queuedMask[r.App] &^= bit
	}
	c.pending &^= bit

	row := r.Row
	b := &c.banks[bi]

	// Row-buffer outcome and command latency.
	var cmdLat uint64
	rowHit := false
	switch {
	case b.rowOpen && b.openRow == row:
		cmdLat = c.cfg.TCAS
		rowHit = true
	case b.rowOpen: // conflict: precharge + activate + CAS
		cmdLat = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
		c.recordAct(now)
	default: // closed: activate + CAS
		cmdLat = c.cfg.TRCD + c.cfg.TCAS
		c.recordAct(now)
	}

	// Extra-row-buffer-miss detection (Eq. 10): the app re-opens the row it
	// accessed last in this bank, so the intervening close was interference.
	if !rowHit && c.lastRowValid[li] && c.lastRow[li] == row {
		c.apps[r.App].ERBMiss++
	}
	c.lastRow[li] = row
	c.lastRowValid[li] = true

	b.rowOpen = true
	b.openRow = row
	// The queue shrank and the open row may have changed: find the bank's
	// first row hit again (the one place a cached index can shift or die).
	b.hit = firstRowHit(q, row)

	// Data-bus reservation: the burst starts when both the bank commands
	// have completed and the bus is free.
	dataStart := now + cmdLat
	if dataStart < c.busBusyUntil {
		dataStart = c.busBusyUntil
	}
	dataEnd := dataStart + c.cfg.TBurst
	c.busBusyUntil = dataEnd

	b.cur = r
	b.curRowHit = rowHit
	b.busyUntil = dataEnd
	b.readyAt = dataEnd // next command to this bank after data completes
	r.BankEnter = now
	if c.busy == 0 {
		// Transfers share one data bus, so this one ends after every
		// transfer already in service and only an idle controller needs a
		// new earliest completion.
		c.nextDone = dataEnd
	}
	c.busy |= bit
	c.execMask[r.App] |= bit

	c.apps[r.App].DataBusCycles += c.cfg.TBurst
}

// firstRowHit returns the index of the first request within the lookahead
// window of q whose row is row, or -1.
func firstRowHit(q []*memreq.Request, row uint64) int8 {
	for k := 0; k < len(q) && k < rowHitLookahead; k++ {
		if q[k].Row == row {
			return int8(k)
		}
	}
	return -1
}

// sampleBLP takes one bank-level-parallelism sample for every app with
// outstanding work, from the per-app bank masks.
func (c *Controller) sampleBLP() {
	for a := 0; a < c.numApps; a++ {
		if c.outstanding[a] == 0 {
			continue
		}
		queued, exec := c.queuedMask[a], c.execMask[a]
		ac := &c.apps[a]
		ac.BLPSamples++
		ac.BLPAccessSum += uint64(popcount(exec))
		ac.BLPSum += uint64(popcount(exec | queued))
		// Banks the app waits on that are busy with someone else's work.
		ac.BLPBlockedSum += uint64(popcount(queued & c.busy &^ exec))
	}
}

func popcount(v uint64) int { return bits.OnesCount64(v) }

// ForEachInFlight calls fn for every request the controller currently holds:
// buffered in a bank queue, in service in a bank, or completed but not yet
// drained by Replies. The simulator's conservation checker uses it to walk
// the live-request set.
func (c *Controller) ForEachInFlight(fn func(*memreq.Request)) {
	for _, q := range c.queues {
		for _, r := range q {
			fn(r)
		}
	}
	for i := range c.banks {
		if r := c.banks[i].cur; r != nil {
			fn(r)
		}
	}
	for _, r := range c.replies {
		fn(r)
	}
}

// CheckInvariants cross-checks the controller's incrementally maintained
// bookkeeping against from-scratch recounts of the queues and banks:
//
//   - queued equals the summed bank-queue lengths;
//   - every queuedPerBank counter equals a naive recount of its (app, bank);
//   - every outstanding counter equals the app's queued plus in-service
//     requests;
//   - every buffered request sits in the bank queue its address maps to and
//     carries Row equal to a fresh AddrMap.Row of its address (the cached-row
//     optimization never diverges from recomputation);
//   - a bank with a request in service has its row open;
//   - every bank's cached hit index equals a fresh scan of its lookahead
//     window against the open row, and is -1 while the row is closed;
//   - the pending and busy masks and every app's queuedMask and execMask
//     equal masks rebuilt from the banks and the recount;
//   - nextDone is no later than any in-service request's completion.
//
// It is O(requests) and meant for debug runs (sim.WithInvariantChecks), not
// the per-cycle hot path.
func (c *Controller) CheckInvariants() error {
	total := 0
	counts := make([]int32, c.numApps*c.cfg.NumBanks)
	inService := make([]int, c.numApps)
	for b, q := range c.queues {
		total += len(q)
		for i, r := range q {
			if r == nil {
				return fmt.Errorf("dram %d: nil request at bank %d index %d", c.id, b, i)
			}
			if int(r.App) < 0 || int(r.App) >= c.numApps {
				return fmt.Errorf("dram %d: bank %d holds request with app %d outside [0,%d)", c.id, b, r.App, c.numApps)
			}
			if want := c.amap.Bank(r.Addr); want != b {
				return fmt.Errorf("dram %d: request %v queued at bank %d but maps to bank %d", c.id, r, b, want)
			}
			if want := c.amap.Row(r.Addr); r.Row != want {
				return fmt.Errorf("dram %d: request %v caches row %d but address maps to row %d", c.id, r, r.Row, want)
			}
			counts[int(r.App)*c.cfg.NumBanks+b]++
		}
	}
	if total != c.queued {
		return fmt.Errorf("dram %d: queued counter %d but bank queues hold %d", c.id, c.queued, total)
	}
	for i, want := range counts {
		if got := c.queuedPerBank[i]; got != want {
			return fmt.Errorf("dram %d: queuedPerBank[app %d][bank %d] = %d, recount %d",
				c.id, i/c.cfg.NumBanks, i%c.cfg.NumBanks, got, want)
		}
	}
	var pending, busy uint64
	var execMask [maxApps]uint64
	for bi := range c.banks {
		b := &c.banks[bi]
		bit := uint64(1) << uint(bi)
		want := int8(-1)
		if b.rowOpen {
			want = firstRowHit(c.queues[bi], b.openRow)
		}
		if b.hit != want {
			return fmt.Errorf("dram %d: bank %d caches hit index %d, fresh scan finds %d", c.id, bi, b.hit, want)
		}
		if b.cur == nil {
			if len(c.queues[bi]) > 0 {
				pending |= bit
			}
			continue
		}
		busy |= bit
		if b.busyUntil < c.nextDone {
			return fmt.Errorf("dram %d: nextDone %d is past bank %d's completion at %d", c.id, c.nextDone, bi, b.busyUntil)
		}
		// An all-bank refresh closes rows under an in-flight transfer: the
		// burst finishes (cur stays, busyUntil unchanged) while readyAt is
		// raised to the refresh-end fence. A closed row whose readyAt has
		// NOT been fenced past the transfer is real corruption.
		if !b.rowOpen && b.readyAt < b.busyUntil {
			return fmt.Errorf("dram %d: bank %d in service with no open row and no refresh fence", c.id, bi)
		}
		if int(b.cur.App) < 0 || int(b.cur.App) >= c.numApps {
			return fmt.Errorf("dram %d: bank %d serves request with app %d outside [0,%d)", c.id, bi, b.cur.App, c.numApps)
		}
		inService[b.cur.App]++
		execMask[b.cur.App] |= bit
	}
	if c.pending != pending {
		return fmt.Errorf("dram %d: pending mask %#x, free banks with queued work are %#x", c.id, c.pending, pending)
	}
	if c.busy != busy {
		return fmt.Errorf("dram %d: busy mask %#x, banks in service are %#x", c.id, c.busy, busy)
	}
	for a := 0; a < c.numApps; a++ {
		want := inService[a]
		var queuedMask uint64
		for bi := 0; bi < c.cfg.NumBanks; bi++ {
			if n := counts[a*c.cfg.NumBanks+bi]; n > 0 {
				want += int(n)
				queuedMask |= 1 << uint(bi)
			}
		}
		if got := c.outstanding[a]; got != want {
			return fmt.Errorf("dram %d: outstanding[%d] = %d, queues+banks hold %d", c.id, a, got, want)
		}
		if got := c.queuedMask[a]; got != queuedMask {
			return fmt.Errorf("dram %d: queuedMask[%d] = %#x, recount gives %#x", c.id, a, got, queuedMask)
		}
		if got := c.execMask[a]; got != execMask[a] {
			return fmt.Errorf("dram %d: execMask[%d] = %#x, banks serve it on %#x", c.id, a, got, execMask[a])
		}
	}
	return nil
}
