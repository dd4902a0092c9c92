package refmodel

import (
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
)

// The reference SM is the oracle of smcore's FuzzSMCycle, so its own tests
// check it against closed-form expectations, not against another simulator.

type smSource struct {
	p        kernels.Profile
	blocks   int
	next     int
	finished int
}

func (s *smSource) WarpsPerBlock() int { return s.p.WarpsPerBlock }
func (s *smSource) BlockFinished()     { s.finished++ }
func (s *smSource) NextBlock() ([]*kernels.WarpStream, bool) {
	if s.next >= s.blocks {
		return nil, false
	}
	out := make([]*kernels.WarpStream, s.p.WarpsPerBlock)
	for w := range out {
		out[w] = kernels.NewWarpStream(&s.p, 1<<40, uint64(s.next), w, 7)
	}
	s.next++
	return out, true
}

func smProfile() kernels.Profile {
	return kernels.Profile{
		Name: "ref", Abbr: "RF", MemFrac: 0, ComputeLat: 2, CoalescedLines: 1,
		Pattern: kernels.Strided, SeqRun: 8, FootprintLines: 4096,
		WarpsPerBlock: 4, Blocks: 100, InstPerWarp: 50,
	}
}

func newRefSM(mutate func(*config.Config)) *SM {
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	amap := memreq.NewAddrMap(cfg.L1.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
	return NewSM(2, cfg, amap)
}

// runSM cycles the SM up to limit cycles with an instant memory: every
// outbound request is popped at once, loads answered after latency cycles.
func runSM(sm *SM, limit, latency uint64) (cycles uint64, reads, writes int) {
	type due struct {
		r  *memreq.Request
		at uint64
	}
	var pending []due
	for now := uint64(0); now < limit; now++ {
		for len(pending) > 0 && pending[0].at <= now {
			sm.DeliverReply(pending[0].r, now)
			pending = pending[1:]
		}
		sm.Cycle(now)
		for sm.OutboxLen() > 0 {
			r := sm.PopOutbox()
			if r.Kind == memreq.Write {
				writes++
				continue
			}
			reads++
			pending = append(pending, due{r, now + latency})
		}
		if now > 0 && sm.Idle() && len(pending) == 0 {
			return now + 1, reads, writes
		}
	}
	return limit, reads, writes
}

func TestSMPureComputeIssuesAtFullWidth(t *testing.T) {
	sm := newRefSM(nil)
	src := &smSource{p: smProfile(), blocks: 1}
	sm.Assign(0, src)
	cycles, reads, writes := runSM(sm, 10_000, 0)
	st := sm.Stats()
	if !sm.Idle() || src.finished != 1 || st.BlocksDone != 1 {
		t.Fatalf("block not retired: idle %v finished %d done %d", sm.Idle(), src.finished, st.BlocksDone)
	}
	if st.Issued != 4*50 || st.MemInsts != 0 || reads+writes != 0 {
		t.Fatalf("issued %d (mem %d), %d requests; want 200 compute instructions and none", st.Issued, st.MemInsts, reads+writes)
	}
	// Four warps, each issuing every second cycle, fill both issue slots:
	// 200 instructions take 100 cycles, plus the last wake and the retire.
	if cycles < 100 || cycles > 104 {
		t.Fatalf("took %d cycles, want about 100", cycles)
	}
	if st.StallUnits != 0 {
		t.Fatalf("a compute-only block accrued %v memory-stall units", st.StallUnits)
	}
	if st.Cycles != cycles || st.ActiveCycles == 0 || st.ActiveCycles > st.Cycles {
		t.Fatalf("cycle accounting: %+v over %d cycles", st, cycles)
	}
}

func TestSMResidencyLimits(t *testing.T) {
	sm := newRefSM(nil)
	sm.Assign(0, &smSource{p: smProfile(), blocks: 100})
	sm.Cycle(0)
	if sm.ResidentBlocks() != 8 { // MaxBlocks 8 < 48/4 warps
		t.Fatalf("resident blocks = %d, want 8", sm.ResidentBlocks())
	}
	wide := smProfile()
	wide.WarpsPerBlock = 20
	sm = newRefSM(nil)
	sm.Assign(0, &smSource{p: wide, blocks: 100})
	sm.Cycle(0)
	if sm.ResidentBlocks() != 2 { // 48/20
		t.Fatalf("wide resident blocks = %d, want 2", sm.ResidentBlocks())
	}
	huge := smProfile()
	huge.WarpsPerBlock = 64
	sm = newRefSM(nil)
	src := &smSource{p: huge, blocks: 100}
	sm.Assign(0, src)
	sm.Cycle(0)
	if sm.ResidentBlocks() != 0 || src.next != 0 {
		t.Fatalf("a block wider than the SM was dispatched")
	}
}

func TestSMLoadsMissThenHit(t *testing.T) {
	p := smProfile()
	p.MemFrac, p.WarpsPerBlock, p.InstPerWarp = 0.5, 1, 40
	p.Pattern, p.FootprintLines = kernels.BlockStream, 4 // four lines, revisited
	sm := newRefSM(nil)
	sm.Assign(0, &smSource{p: p, blocks: 1})
	_, reads, writes := runSM(sm, 100_000, 25)
	st := sm.Stats()
	if !sm.Idle() || st.MemInsts != 20 || writes != 0 {
		t.Fatalf("idle %v, %d memory instructions, %d writes; want 20 loads", sm.Idle(), st.MemInsts, writes)
	}
	if reads != 4 || st.LoadsL1Miss != 4 || st.LoadsL1Hit != 16 {
		t.Fatalf("%d requests, %d misses, %d hits; want the 4 lines fetched once and 16 hits", reads, st.LoadsL1Miss, st.LoadsL1Hit)
	}
	if st.MemLat.Count != 4 || st.MemLat.Min != 25 || st.MemLat.Max != 25 || st.LatHist.Total != 4 {
		t.Fatalf("latency stats %+v, want four 25-cycle round trips", st.MemLat)
	}
	if acc, blk := sm.L1Counts(); acc != 20 || blk != 0 {
		t.Fatalf("L1 counted %d accesses / %d blockings, want 20 / 0", acc, blk)
	}
	// One warp, blocked on every miss: the stall fraction is substantial.
	if a := st.StallUnits / float64(st.ActiveCycles); a < 0.2 || a > 1 {
		t.Fatalf("alpha %v for a single warp waiting on 25-cycle misses", a)
	}
}

func TestSMLRUEvictsOldestLine(t *testing.T) {
	sm := newRefSM(nil)
	sm.Assign(0, nil)
	sets := uint64(len(sm.l1Sets))
	line := func(i uint64) uint64 { return i * sets * 128 } // all in set 0
	for i := uint64(0); i < 4; i++ {
		sm.DeliverReply(&memreq.Request{Addr: line(i)}, 0)
	}
	if !sm.l1Touch(0, line(0)) { // line 0 becomes the most recent
		t.Fatal("filled line not resident")
	}
	sm.DeliverReply(&memreq.Request{Addr: line(4)}, 0) // evicts line 1
	for i, want := range []bool{true, false, true, true, true} {
		if got := sm.l1Touch(0, line(uint64(i))); got != want {
			t.Fatalf("line %d resident = %v, want %v", i, got, want)
		}
	}
}

func TestSMStructuralHazards(t *testing.T) {
	p := smProfile()
	p.MemFrac, p.InstPerWarp = 1, 10 // every instruction a load, all lines distinct
	t.Run("mshrs full", func(t *testing.T) {
		sm := newRefSM(func(c *config.Config) { c.L1.MSHRs = 3 })
		sm.Assign(0, &smSource{p: p, blocks: 1})
		for now := uint64(0); now < 50; now++ {
			sm.Cycle(now)
		}
		st := sm.Stats()
		if st.LoadsL1Miss != 3 || sm.OutboxLen() != 3 {
			t.Fatalf("%d misses, %d requests with 3 MSHRs and no replies", st.LoadsL1Miss, sm.OutboxLen())
		}
		if acc, blk := sm.L1Counts(); blk == 0 || acc != 3+blk {
			t.Fatalf("L1 counted %d accesses / %d blockings", acc, blk)
		}
		// Every cycle since the MSHRs filled lost both slots to memory.
		if st.StallUnits < 40 {
			t.Fatalf("stall units %v over 50 cycles of a blocked SM", st.StallUnits)
		}
		// A reply frees an MSHR: exactly one more miss goes out.
		sm.DeliverReply(sm.PopOutbox(), 50)
		sm.Cycle(50)
		sm.Cycle(51)
		if got := sm.Stats().LoadsL1Miss; got != 4 {
			t.Fatalf("%d misses after one fill, want 4", got)
		}
	})
	t.Run("merge cap", func(t *testing.T) {
		shared := p
		shared.WarpsPerBlock = 1 // strided: every block's warp 0 walks the same lines
		sm := newRefSM(func(c *config.Config) { c.L1.MSHRMerge = 2 })
		sm.Assign(0, &smSource{p: shared, blocks: 8})
		for now := uint64(0); now < 50; now++ {
			sm.Cycle(now)
		}
		// Eight warps want line 0: one miss, two merges, the fourth is blocked.
		if st := sm.Stats(); st.LoadsL1Miss != 3 || sm.OutboxLen() != 1 {
			t.Fatalf("%d misses+merges, %d requests; want 3 and 1", st.LoadsL1Miss, sm.OutboxLen())
		}
		if _, blk := sm.L1Counts(); blk == 0 {
			t.Fatal("the merge-capped access was not counted as an L1 blocking")
		}
	})
	t.Run("outbox full of loads", func(t *testing.T) {
		wide := p
		wide.CoalescedLines, wide.WarpsPerBlock = 8, 8 // 64 distinct lines
		sm := newRefSM(func(c *config.Config) { c.L1.MSHRs = 64 })
		sm.Assign(0, &smSource{p: wide, blocks: 1})
		for now := uint64(0); now < 50; now++ {
			sm.Cycle(now)
		}
		if sm.OutboxLen() != smOutboxLimit {
			t.Fatalf("outbox holds %d, want the limit %d", sm.OutboxLen(), smOutboxLimit)
		}
		// Turned away at the outbox, before the L1: no blockings booked.
		if acc, blk := sm.L1Counts(); acc != smOutboxLimit || blk != 0 {
			t.Fatalf("L1 counted %d accesses / %d blockings, want %d / 0", acc, blk, smOutboxLimit)
		}
	})
	t.Run("outbox full of stores", func(t *testing.T) {
		stores := p
		stores.WriteFrac, stores.CoalescedLines = 1, 8
		sm := newRefSM(nil)
		sm.Assign(0, &smSource{p: stores, blocks: 2})
		for now := uint64(0); now < 50; now++ {
			sm.Cycle(now)
		}
		if sm.OutboxLen() != smOutboxLimit {
			t.Fatalf("outbox holds %d, want the limit %d", sm.OutboxLen(), smOutboxLimit)
		}
		if r := sm.OutboxAt(0); r.Kind != memreq.Write || r.SM != 2 || r.App != 0 {
			t.Fatalf("head request %v", r)
		}
		// Stores never wait for replies: draining the outbox lets it finish.
		if _, reads, writes := runSM(sm, 10_000, 0); !sm.Idle() || reads != 0 || writes != 2*4*10*8 {
			t.Fatalf("idle %v after %d reads / %d writes, want 640 stores", sm.Idle(), reads, writes)
		}
	})
}

func TestSMBarrierHoldsBlockTogether(t *testing.T) {
	p := smProfile()
	p.BarrierEvery, p.InstPerWarp, p.ComputeLat = 5, 20, 1
	sm := newRefSM(nil)
	sm.Assign(0, &smSource{p: p, blocks: 1})
	sawParked := false
	for now := uint64(0); now < 1000 && !(now > 0 && sm.Idle()); now++ {
		sm.Cycle(now)
		waiting, lo, hi := 0, 1<<30, 0
		for i := range sm.warps {
			w := &sm.warps[i]
			if w.state == smWarpFree {
				continue
			}
			if w.state == smWarpBarrierWait {
				waiting++
			}
			if r := w.stream.Remaining(); r < lo {
				lo = r
			}
			if r := w.stream.Remaining(); r > hi {
				hi = r
			}
		}
		if waiting >= 2 { // two arrive per cycle; the last arrival frees all
			sawParked = true
		}
		if hi-lo > 5 {
			t.Fatalf("cycle %d: warps %d instructions apart across a barrier every 5", now, hi-lo)
		}
	}
	if !sm.Idle() || !sawParked {
		t.Fatalf("idle %v, saw warps parked at a barrier %v", sm.Idle(), sawParked)
	}
	if st := sm.Stats(); st.Issued != 4*20 {
		t.Fatalf("issued %d, want 80 (barriers count as instructions)", st.Issued)
	}
}

func TestSMDrainAndReassign(t *testing.T) {
	sm := newRefSM(nil)
	src := &smSource{p: smProfile(), blocks: 1000}
	sm.Assign(0, src)
	for now := uint64(0); now < 20; now++ {
		sm.Cycle(now)
	}
	sm.Drain()
	taken := src.next
	cycles, _, _ := runSM(sm, 10_000, 0)
	if !sm.Idle() || src.next != taken || src.finished != taken {
		t.Fatalf("drained SM: idle %v, took %d more blocks, finished %d of %d", sm.Idle(), src.next-taken, src.finished, taken)
	}
	func() {
		defer func() {
			if recover() != nil {
				t.Fatal("Assign on an idle SM panicked")
			}
		}()
		mem := smProfile()
		mem.MemFrac = 0.5
		sm.Assign(1, &smSource{p: mem, blocks: 1})
	}()
	sm.Cycle(cycles)
	if sm.Idle() {
		t.Fatal("reassigned SM did not dispatch")
	}
	for now := cycles + 1; sm.OutboxLen() == 0; now++ {
		sm.Cycle(now)
	}
	if r := sm.OutboxAt(0); r.App != 1 {
		t.Fatalf("request after reassignment attributed to app %d", r.App)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Assign on a busy SM must panic")
		}
	}()
	sm.Assign(0, src)
}
