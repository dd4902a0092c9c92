// Package refmodel holds small, deliberately naive reference implementations
// of the data structures the cycle engine's hot paths optimized (PR 3): a
// slice-based FIFO (vs ring.Buffer), a map-based MSHR address index (vs the
// open-addressed mshrIndex), a fresh-allocation request source (vs
// memreq.Pool), a from-scratch per-bank queue recount (vs the incremental
// queuedPerBank counters and per-app bank masks), and a scan-every-bank,
// row-recomputing FR-FCFS pick (vs the DRAM controller's cached rows, cached
// per-bank hit index and pending-bank mask); for the scheduler's partition search, the
// score-every-candidate loop it replaced (partition.go); and a whole streaming
// multiprocessor that decodes every instruction, keeps a slice per timer slot
// and asks its L1 again on every blocked retry (sm.go, vs smcore.SM).
//
// Nothing here is fast, and that is the point: each model is written to be
// obviously correct so that native fuzz targets can drive it in lockstep with
// the optimized implementation and flag the first divergence — telling us
// *where* an engine optimization broke, not merely *that* a golden hash
// changed. See DESIGN.md §11 for the methodology and for how to add a model
// alongside a future optimization.
package refmodel

import "dasesim/internal/memreq"

// FIFO is the slice-based queue the ring buffer replaced: PopFront shifts the
// whole slice, RemoveAt splices. It mirrors ring.Buffer's API exactly so a
// fuzz driver can apply one operation stream to both.
type FIFO[T any] struct {
	q []T
}

// Len returns the number of queued elements.
func (f *FIFO[T]) Len() int { return len(f.q) }

// Empty reports whether the queue holds no elements.
func (f *FIFO[T]) Empty() bool { return len(f.q) == 0 }

// PushBack appends v at the tail.
func (f *FIFO[T]) PushBack(v T) { f.q = append(f.q, v) }

// PopFront removes and returns the head element.
func (f *FIFO[T]) PopFront() T {
	if len(f.q) == 0 {
		panic("refmodel: PopFront on empty FIFO")
	}
	v := f.q[0]
	f.q = append(f.q[:0], f.q[1:]...)
	return v
}

// Front returns the head element without removing it.
func (f *FIFO[T]) Front() T {
	if len(f.q) == 0 {
		panic("refmodel: Front on empty FIFO")
	}
	return f.q[0]
}

// At returns the i-th element from the front (0 = head).
func (f *FIFO[T]) At(i int) T {
	if i < 0 || i >= len(f.q) {
		panic("refmodel: At out of range")
	}
	return f.q[i]
}

// RemoveAt removes and returns the i-th element from the front, preserving
// the order of the rest.
func (f *FIFO[T]) RemoveAt(i int) T {
	if i < 0 || i >= len(f.q) {
		panic("refmodel: RemoveAt out of range")
	}
	v := f.q[i]
	f.q = append(f.q[:i], f.q[i+1:]...)
	return v
}

// Reset discards all elements.
func (f *FIFO[T]) Reset() { f.q = f.q[:0] }

// MSHRIndex is the map-based miss-address index the open-addressed
// cache.mshrIndex replaced. Semantics match: Get returns the registered slot
// or -1, Put registers a new address (the address must be absent), Del
// removes an address and is a no-op when it is absent.
type MSHRIndex struct {
	m map[uint64]int32
}

// NewMSHRIndex builds an empty index.
func NewMSHRIndex() *MSHRIndex { return &MSHRIndex{m: map[uint64]int32{}} }

// Get returns the slot registered for addr, or -1.
func (ix *MSHRIndex) Get(addr uint64) int32 {
	if s, ok := ix.m[addr]; ok {
		return s
	}
	return -1
}

// Put registers addr -> slot; addr must not already be present.
func (ix *MSHRIndex) Put(addr uint64, slot int32) {
	if _, ok := ix.m[addr]; ok {
		panic("refmodel: MSHRIndex.Put of present address")
	}
	ix.m[addr] = slot
}

// Del removes addr (no-op when absent).
func (ix *MSHRIndex) Del(addr uint64) { delete(ix.m, addr) }

// Len returns the number of registered addresses.
func (ix *MSHRIndex) Len() int { return len(ix.m) }

// FreshSource is the allocation discipline memreq.Pool replaced: every Get is
// a fresh, zeroed Request and Put drops the request on the floor. A pooled
// implementation is observationally equivalent exactly when every pooled Get
// returns a Request value equal to a fresh one (fully zeroed) at a pointer
// that aliases no live request.
type FreshSource struct{}

// Get returns a brand-new zeroed request.
func (FreshSource) Get() *memreq.Request { return &memreq.Request{} }

// Put discards the request.
func (FreshSource) Put(*memreq.Request) {}

// CountQueued is the naive per-bank queue recount the incremental
// queuedPerBank counters replaced: it walks every bank queue and tallies
// requests per (app, bank). The result is indexed app*numBanks+bank, matching
// the controller's layout.
func CountQueued(queues [][]*memreq.Request, numApps, numBanks int) []int32 {
	counts := make([]int32, numApps*numBanks)
	for b, q := range queues {
		for _, r := range q {
			counts[int(r.App)*numBanks+b]++
		}
	}
	return counts
}

// FRFCFSBank is one bank's scheduler-visible state for FRFCFSPick.
type FRFCFSBank struct {
	// Free reports whether the bank can start a command now (no request in
	// service and past its ready cycle).
	Free    bool
	RowOpen bool
	OpenRow uint64
	// Queue is the bank's request queue in arrival order.
	Queue []FRFCFSReq
}

// FRFCFSReq is one queued request as the reference scheduler sees it. Row is
// deliberately absent: the reference recomputes it from Addr on every
// comparison, which is exactly what the optimized path's cached Request.Row
// is measured against.
type FRFCFSReq struct {
	App  memreq.AppID
	Addr uint64
	Seq  uint64 // arrival sequence number (FCFS tiebreak)
}

// FRFCFSPick is the naive row-scanning FR-FCFS selection, the only
// from-scratch scan in the tree: every bank is visited and every lookahead
// window re-read on every call, where dram.Controller reads state it keeps
// current at enqueue, schedule, completion and refresh. Per free bank the
// candidate is the prioritized app's oldest request within the lookahead
// window if one exists, else the first row hit within the window, else the
// head; across banks the order is priority app > row hit > oldest arrival.
// Requests needing a row activation are ineligible while actAllowed is false.
// only restricts the pick to one application (memreq.InvalidApp: any). It
// returns the chosen (bank, queue index), or (-1, -1).
func FRFCFSPick(amap memreq.AddrMap, banks []FRFCFSBank, prio, only memreq.AppID, actAllowed bool, lookahead int) (int, int) {
	bestBank, bestIdx := -1, -1
	var bestSeq uint64
	bestHit := false
	bestPrio := false
	for bi := range banks {
		bnk := &banks[bi]
		if !bnk.Free || len(bnk.Queue) == 0 {
			continue
		}
		q := bnk.Queue
		idx := -1
		hit := false
		if prio != memreq.InvalidApp && (only == memreq.InvalidApp || only == prio) {
			for k := 0; k < len(q) && k < lookahead; k++ {
				if q[k].App == prio {
					h := bnk.RowOpen && amap.Row(q[k].Addr) == bnk.OpenRow
					if !h && !actAllowed {
						break
					}
					idx, hit = k, h
					break
				}
			}
		}
		if idx == -1 && bnk.RowOpen {
			for k := 0; k < len(q) && k < lookahead; k++ {
				if only != memreq.InvalidApp && q[k].App != only {
					continue
				}
				if amap.Row(q[k].Addr) == bnk.OpenRow {
					idx, hit = k, true
					break
				}
			}
		}
		if idx == -1 {
			if !actAllowed {
				continue
			}
			if only == memreq.InvalidApp {
				idx = 0
			} else {
				for k := 0; k < len(q) && k < lookahead; k++ {
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
		pr := prio != memreq.InvalidApp && r.App == prio
		better := bestBank == -1 ||
			(pr && !bestPrio) ||
			(pr == bestPrio && hit && !bestHit) ||
			(pr == bestPrio && hit == bestHit && r.Seq < bestSeq)
		if better {
			bestBank, bestIdx, bestSeq, bestHit, bestPrio = bi, idx, r.Seq, hit, pr
		}
	}
	return bestBank, bestIdx
}
