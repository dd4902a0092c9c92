package smcore

import (
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
)

// fakeSource hands out a bounded number of blocks of a test kernel.
type fakeSource struct {
	p        kernels.Profile
	blocks   int
	next     int
	finished int
}

func (f *fakeSource) WarpsPerBlock() int { return f.p.WarpsPerBlock }

func (f *fakeSource) NextBlock() ([]*kernels.WarpStream, bool) {
	if f.next >= f.blocks {
		return nil, false
	}
	id := f.next
	f.next++
	out := make([]*kernels.WarpStream, f.p.WarpsPerBlock)
	for w := range out {
		out[w] = kernels.NewWarpStream(&f.p, 1<<40, uint64(id), w, 7)
	}
	return out, true
}

func (f *fakeSource) BlockFinished() { f.finished++ }

func computeProfile() kernels.Profile {
	return kernels.Profile{
		Name: "test", Abbr: "TT",
		MemFrac: 0, ComputeLat: 2, CoalescedLines: 1,
		Pattern: kernels.BlockStream, SeqRun: 8,
		FootprintLines: 1024, WarpsPerBlock: 4, Blocks: 100, InstPerWarp: 50,
	}
}

func memProfile() kernels.Profile {
	p := computeProfile()
	p.MemFrac = 0.2
	return p
}

func newSM() *SM {
	cfg := config.Default()
	amap := memreq.NewAddrMap(cfg.L1.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
	return New(0, cfg, amap, nil)
}

func TestPureComputeBlockRetires(t *testing.T) {
	sm := newSM()
	src := &fakeSource{p: computeProfile(), blocks: 1}
	sm.Assign(0, src)
	for now := uint64(0); now < 5000; now++ {
		sm.Cycle(now)
		if now > 0 && sm.Idle() {
			break
		}
	}
	if !sm.Idle() {
		t.Fatal("compute-only block never retired")
	}
	if src.finished != 1 {
		t.Fatalf("BlockFinished called %d times", src.finished)
	}
	st := sm.Stats()
	if st.Issued != 4*50 {
		t.Fatalf("issued %d instructions, want %d", st.Issued, 4*50)
	}
	if st.StallUnits != 0 {
		t.Fatalf("pure compute accrued %v memory-stall units", st.StallUnits)
	}
	if st.BlocksDone != 1 {
		t.Fatalf("BlocksDone = %d", st.BlocksDone)
	}
}

func TestResidencyLimits(t *testing.T) {
	sm := newSM()
	src := &fakeSource{p: computeProfile(), blocks: 100}
	sm.Assign(0, src)
	sm.Cycle(0)
	// MaxBlocks = 8, warps allow 48/4 = 12 -> 8 resident.
	if sm.ResidentBlocks() != 8 {
		t.Fatalf("resident blocks = %d, want 8", sm.ResidentBlocks())
	}
	// Wide blocks are warp-limited instead.
	sm2 := newSM()
	wide := computeProfile()
	wide.WarpsPerBlock = 20 // 48/20 = 2 resident
	src2 := &fakeSource{p: wide, blocks: 100}
	sm2.Assign(0, src2)
	sm2.Cycle(0)
	if sm2.ResidentBlocks() != 2 {
		t.Fatalf("wide resident blocks = %d, want 2", sm2.ResidentBlocks())
	}
	// The limits are fixed per assignment, not per SM: an idle SM handed a
	// source of another width dispatches to that source's cap.
	sm3 := newSM()
	sm3.Assign(0, &fakeSource{p: wide, blocks: 0})
	sm3.Cycle(0)
	sm3.Assign(1, &fakeSource{p: computeProfile(), blocks: 100})
	sm3.Cycle(1)
	if sm3.ResidentBlocks() != 8 {
		t.Fatalf("resident blocks after reassignment = %d, want 8", sm3.ResidentBlocks())
	}
	// A block wider than the SM's warp capacity never becomes resident.
	sm4 := newSM()
	huge := computeProfile()
	huge.WarpsPerBlock = 64
	src4 := &fakeSource{p: huge, blocks: 100}
	sm4.Assign(0, src4)
	sm4.Cycle(0)
	if sm4.ResidentBlocks() != 0 || src4.next != 0 {
		t.Fatalf("oversized block dispatched: resident %d, consumed %d", sm4.ResidentBlocks(), src4.next)
	}
}

func TestMemoryRequestsFlow(t *testing.T) {
	sm := newSM()
	src := &fakeSource{p: memProfile(), blocks: 2}
	sm.Assign(0, src)
	var outbound []*memreq.Request
	for now := uint64(0); now < 200; now++ {
		sm.Cycle(now)
		for sm.OutboxLen() > 0 {
			outbound = append(outbound, sm.PopOutbox())
		}
	}
	if len(outbound) == 0 {
		t.Fatal("memory kernel issued no requests")
	}
	for _, r := range outbound {
		if r.App != 0 || r.SM != 0 {
			t.Fatalf("bad request attribution: %v", r)
		}
		if r.Addr%128 != 0 {
			t.Fatalf("unaligned request address %#x", r.Addr)
		}
	}
}

func TestReplyWakesWarpAndBlockCompletes(t *testing.T) {
	sm := newSM()
	src := &fakeSource{p: memProfile(), blocks: 1}
	sm.Assign(0, src)
	for now := uint64(0); now < 100_000; now++ {
		sm.Cycle(now)
		// Reflect every outbound read back as an instant reply.
		for sm.OutboxLen() > 0 {
			r := sm.PopOutbox()
			if r.Kind == memreq.Read {
				sm.DeliverReply(r, now)
			}
		}
		if now > 0 && sm.Idle() {
			break
		}
	}
	if !sm.Idle() {
		t.Fatal("memory block never retired with instant replies")
	}
	st := sm.Stats()
	if st.MemInsts == 0 || st.LoadsL1Miss == 0 {
		t.Fatalf("no memory activity recorded: %+v", st)
	}
}

func TestStallAccountingWithoutReplies(t *testing.T) {
	sm := newSM()
	src := &fakeSource{p: memProfile(), blocks: 4}
	sm.Assign(0, src)
	// Never deliver replies: warps pile up in memwait, stall units accrue.
	for now := uint64(0); now < 3000; now++ {
		sm.Cycle(now)
		for sm.OutboxLen() > 0 {
			sm.PopOutbox()
		}
	}
	st := sm.Stats()
	if st.StallUnits <= 0 {
		t.Fatal("starved SM accrued no stall units")
	}
	if a := st.Alpha(); a <= 0 || a > 1 {
		t.Fatalf("alpha %v out of (0,1]", a)
	}
}

func TestDrainReachesIdleAndReassign(t *testing.T) {
	sm := newSM()
	src := &fakeSource{p: computeProfile(), blocks: 1000}
	sm.Assign(0, src)
	for now := uint64(0); now < 100; now++ {
		sm.Cycle(now)
	}
	if sm.Idle() {
		t.Fatal("setup: SM should be busy")
	}
	sm.Drain()
	if !sm.Draining() {
		t.Fatal("Drain did not mark the SM")
	}
	var now uint64 = 100
	for ; now < 50_000 && !sm.Idle(); now++ {
		sm.Cycle(now)
	}
	if !sm.Idle() {
		t.Fatal("draining SM never became idle")
	}
	// Reassign to another app.
	src2 := &fakeSource{p: memProfile(), blocks: 1}
	sm.ResetStats()
	sm.Assign(1, src2)
	if sm.Owner() != 1 {
		t.Fatal("owner not updated")
	}
	sm.Cycle(now)
	if sm.Idle() {
		t.Fatal("reassigned SM did not pick up new blocks")
	}
	sm.Undrain()
	if sm.Draining() {
		t.Fatal("Undrain failed")
	}
}

func TestOutboxBackpressureThrottlesIssue(t *testing.T) {
	sm := newSM()
	p := memProfile()
	p.MemFrac = 1 // every instruction is a load
	src := &fakeSource{p: p, blocks: 8}
	sm.Assign(0, src)
	for now := uint64(0); now < 1000; now++ {
		sm.Cycle(now) // never drain the outbox
	}
	if sm.OutboxLen() > outboxLimit+8 {
		t.Fatalf("outbox overgrew its limit: %d", sm.OutboxLen())
	}
}

func TestWritesDoNotBlockWarps(t *testing.T) {
	sm := newSM()
	p := memProfile()
	p.WriteFrac = 1 // all stores
	src := &fakeSource{p: p, blocks: 1}
	sm.Assign(0, src)
	for now := uint64(0); now < 20_000; now++ {
		sm.Cycle(now)
		for sm.OutboxLen() > 0 {
			r := sm.PopOutbox()
			if r.Kind != memreq.Write {
				t.Fatalf("expected store, got %v", r)
			}
			// Stores are fire-and-forget: no reply delivered.
		}
		if now > 0 && sm.Idle() {
			break
		}
	}
	if !sm.Idle() {
		t.Fatal("store-only block never retired without replies")
	}
}

func TestAssignWhileBusyPanics(t *testing.T) {
	sm := newSM()
	src := &fakeSource{p: computeProfile(), blocks: 10}
	sm.Assign(0, src)
	sm.Cycle(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Assign on a busy SM must panic")
		}
	}()
	sm.Assign(1, src)
}
