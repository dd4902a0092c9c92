package smcore

import (
	"strings"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
)

// eventStateSM runs a load-heavy kernel against a 2-MSHR L1 with no replies
// and an undrained outbox until the issue path's incremental state is all in
// use at once: compute wakes and L1-hit line wakes on the wheel, a spilled
// wake, warps waiting on MSHRs, and a warp whose memo matches the epoch.
func eventStateSM(t *testing.T) *SM {
	t.Helper()
	cfg := config.Default()
	cfg.L1.MSHRs = 2
	amap := memreq.NewAddrMap(cfg.L1.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
	sm := New(0, cfg, amap, nil)
	p := kernels.Profile{
		Name: "test", Abbr: "TT", MemFrac: 0.1, ComputeLat: 30, CoalescedLines: 2,
		Pattern: kernels.Strided, SeqRun: 8, FootprintLines: 4096,
		BarrierEvery: 4, WarpsPerBlock: 8, Blocks: 100, InstPerWarp: 200,
	}
	sm.Assign(0, &fakeSource{p: p, blocks: 100})
	memoed := func() bool {
		for i := range sm.warps {
			if sm.warps[i].memoEpoch == sm.hazardEpoch {
				return true
			}
		}
		return false
	}
	for now := uint64(0); now < 2000; now++ {
		sm.Cycle(now)
		if err := sm.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		if memoed() && len(sm.spill) > 0 {
			return sm
		}
	}
	t.Fatal("setup never held a memoised warp and a spilled wake at once")
	return nil
}

// TestCheckInvariantsCatchesEventState corrupts, one at a time, each field the
// issue path maintains incrementally and requires CheckInvariants to object,
// naming the field — the checker for the state of DESIGN §10.2's event table
// is itself checked.
func TestCheckInvariantsCatchesEventState(t *testing.T) {
	find := func(sm *SM, what string, pred func(w *warp) bool) int {
		for i := range sm.warps {
			if pred(&sm.warps[i]) {
				return i
			}
		}
		t.Fatalf("setup holds no %s", what)
		return -1
	}
	cases := []struct {
		name    string
		corrupt func(sm *SM)
		want    string
	}{
		{"compute wake dropped from its slot", func(sm *SM) {
			for s := range sm.wheel {
				if slot := &sm.wheel[s]; slot.n > 0 && slot.n < wheelInline && slot.e[slot.n-1]&1 == wakeCompute {
					slot.n--
					return
				}
			}
			t.Fatal("setup holds no compute wake at the end of a slot")
		}, "compute wakes"},
		{"compute-wait warp turned ready", func(sm *SM) {
			sm.warps[find(sm, "compute-wait warp", func(w *warp) bool { return w.state == warpComputeWait })].state = warpReady
		}, "compute wakes"},
		{"slot count past the inline array", func(sm *SM) {
			sm.wheel[5].n = wheelInline + 1
		}, "wheel slot 5"},
		{"spilled entry for a slot with room", func(sm *SM) {
			for s := range sm.wheel {
				if sm.wheel[s].n < wheelInline {
					sm.spill = append(sm.spill, spilledEntry{uint8(s), wakeLine})
					return
				}
			}
		}, "spill"},
		{"spilled wake lost", func(sm *SM) {
			sm.spill = sm.spill[:len(sm.spill)-1]
		}, "compute wakes"},
		{"wheel entry naming no warp", func(sm *SM) {
			sm.wheel[7].e[0], sm.wheel[7].n = wheelEntry(len(sm.warps))<<1, 1
		}, "names warp"},
		{"outstanding off by one", func(sm *SM) {
			sm.warps[find(sm, "warp with lines in flight", func(w *warp) bool { return w.outstanding > 0 })].outstanding++
		}, "outstanding"},
		{"computeLeft beside a pending memory op", func(sm *SM) {
			sm.warps[find(sm, "warp with a pending op", func(w *warp) bool { return w.pendingIdx >= 0 })].computeLeft = 3
		}, "computeLeft"},
		{"negative computeLeft", func(sm *SM) {
			sm.warps[0].computeLeft = -1
		}, "computeLeft"},
		{"memo on a warp that is not blocked", func(sm *SM) {
			sm.warps[find(sm, "warp with no pending op", func(w *warp) bool { return w.state != warpFree && w.pendingIdx < 0 })].memoEpoch = sm.hazardEpoch
		}, "memo matches"},
		{"hazardEpoch rolled back onto a stale memo", func(sm *SM) {
			w := find(sm, "memoised warp", func(w *warp) bool { return w.memoEpoch == sm.hazardEpoch })
			sm.hazardEpoch--
			sm.warps[w].memoEpoch = sm.hazardEpoch + 1
		}, "ahead of hazardEpoch"},
		{"missed bump: an MSHR freed under a standing memo", func(sm *SM) {
			// What DeliverReply does, minus its hazardEpoch++.
			addr, ok := sm.l1.MSHRAddr(0)
			if !ok {
				t.Fatal("setup: MSHR 0 not allocated")
			}
			_, _, _, slot := sm.l1.FillIdx(0, sm.amap.CacheSet(addr, sm.l1.Sets()), addr, false)
			for _, wi := range sm.waiters[slot] {
				sm.lineArrived(int(wi))
			}
			sm.waiters[slot] = sm.waiters[slot][:0]
		}, "memo matches"},
		{"L1 verdict memoised on a store", func(sm *SM) {
			w := find(sm, "memoised warp", func(w *warp) bool { return w.memoEpoch == sm.hazardEpoch })
			sm.cold[w].op.Write = true
			for sm.outbox.Len() < outboxLimit {
				sm.outbox.PushBack(&memreq.Request{SM: sm.ID})
			}
		}, "memoL1"},
		{"outbox verdict with room in the outbox", func(sm *SM) {
			sm.warps[find(sm, "memoised warp", func(w *warp) bool { return w.memoEpoch == sm.hazardEpoch })].memoL1 = false
		}, "memoL1"},
		{"line-wake count off by one", func(sm *SM) {
			sm.lineWakes++
		}, "line wakes"},
		{"parked count off by one", func(sm *SM) {
			sm.parked--
		}, "parked"},
		{"hazardEpoch zeroed", func(sm *SM) {
			sm.hazardEpoch = 0
		}, "hazardEpoch is 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sm := eventStateSM(t)
			tc.corrupt(sm)
			err := sm.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
