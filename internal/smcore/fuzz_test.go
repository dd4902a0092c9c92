package smcore

import (
	"math"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
	"dasesim/internal/refmodel"
)

// The lockstep driver behind FuzzSMCycle: one byte stream builds a kernel
// profile and an SM configuration, then steps an SM and refmodel.SM — the
// straight per-instruction SM the issue path was derived from — through the
// same cycles, outbox pops, replies, drains and reassignments.
//
// Every byte decodes as (b - '0') % N, so seeds are written in digits.
// Header, fuzzHeader bytes:
//
//	0 MemFrac        0, 0.05, 0.2, 0.5, 1, 0.999, 1e-4
//	1 ComputeLat     1, 2, 4, 30
//	2 L1.HitLatency  30, 4, 1, 2
//	3 CoalescedLines 1, 2, 4, 8
//	4 WriteFrac      0, 0.3, 1
//	5 BarrierEvery   0, 1, 7, 3, 16
//	6 WarpsPerBlock  4, 8, 1, 12, 48
//	7 InstPerWarp    50, 1, 7, 200, 20
//	8 addresses      blockstream/1024 lines, scatter/64, strided/4096, blockstream/16
//	9 L1 MSHRs/merge 32/8, 2/8, 4/1, 1/1
//
// then one op per byte:
//
//	0 one cycle                  5 reassign (when idle; undoes a drain)
//	1 pop one outbox request     6 eight cycles
//	2 deliver the oldest reply   7 pop the whole outbox
//	3 deliver every reply        8 forty cycles
//	4 drain                      9 sixteen engine-like steps: deliver replies
//	                               older than 20 cycles, cycle, pop two
const fuzzHeader = 10

func fuzzPick[T any](b byte, choices ...T) T { return choices[int(b-'0')%len(choices)] }

func fuzzSetup(h []byte) (config.Config, kernels.Profile) {
	p := kernels.Profile{
		Name: "fuzz", Abbr: "FZ", SeqRun: 8, Blocks: 1 << 20,
		MemFrac:        fuzzPick[float64](h[0], 0, 0.05, 0.2, 0.5, 1, 0.999, 1e-4),
		ComputeLat:     fuzzPick(h[1], 1, 2, 4, 30),
		CoalescedLines: fuzzPick(h[3], 1, 2, 4, 8),
		WriteFrac:      fuzzPick[float64](h[4], 0, 0.3, 1),
		BarrierEvery:   fuzzPick(h[5], 0, 1, 7, 3, 16),
		WarpsPerBlock:  fuzzPick(h[6], 4, 8, 1, 12, 48),
		InstPerWarp:    fuzzPick(h[7], 50, 1, 7, 200, 20),
	}
	type addressing struct {
		pattern   kernels.Pattern
		footprint uint64
	}
	a := fuzzPick(h[8], addressing{kernels.BlockStream, 1024}, addressing{kernels.Scatter, 64},
		addressing{kernels.Strided, 4096}, addressing{kernels.BlockStream, 16})
	p.Pattern, p.FootprintLines = a.pattern, a.footprint
	cfg := config.Default()
	cfg.L1.HitLatency = fuzzPick[uint64](h[2], 30, 4, 1, 2)
	m := fuzzPick(h[9], [2]int{32, 8}, [2]int{2, 8}, [2]int{4, 1}, [2]int{1, 1})
	cfg.L1.MSHRs, cfg.L1.MSHRMerge = m[0], m[1]
	return cfg, p
}

// lockstep holds an SM and its reference side by side.
type lockstep struct {
	t        testing.TB
	sm       *SM
	ref      *refmodel.SM
	src      [2]*fakeSource // [0] feeds sm, [1] feeds ref
	now      uint64
	assigns  int
	inFlight []flight // popped loads awaiting their reply, oldest first
	// observe, when set, is called after every compared cycle.
	observe func(ls *lockstep)
}

type flight struct {
	r, ref *memreq.Request
	sent   uint64
}

func newLockstep(t testing.TB, header []byte) *lockstep {
	cfg, p := fuzzSetup(header)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("fuzz config: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("fuzz profile: %v", err)
	}
	amap := memreq.NewAddrMap(cfg.L1.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
	ls := &lockstep{t: t, sm: New(3, cfg, amap, nil), ref: refmodel.NewSM(3, cfg, amap)}
	for i := range ls.src {
		ls.src[i] = &fakeSource{p: p, blocks: 1 << 20}
	}
	ls.assign()
	return ls
}

func (ls *lockstep) assign() {
	app := memreq.AppID(ls.assigns % 2)
	ls.assigns++
	ls.sm.Assign(app, ls.src[0])
	ls.ref.Assign(app, ls.src[1])
}

func (ls *lockstep) pop() {
	if ls.sm.OutboxLen() == 0 {
		return
	}
	r, ref := ls.sm.PopOutbox(), ls.ref.PopOutbox()
	if r.Kind == memreq.Read {
		ls.inFlight = append(ls.inFlight, flight{r, ref, ls.now})
	}
}

func (ls *lockstep) deliver(n int) {
	for ; n > 0 && len(ls.inFlight) > 0; n-- {
		f := ls.inFlight[0]
		ls.inFlight = ls.inFlight[1:]
		ls.sm.DeliverReply(f.r, ls.now)
		ls.ref.DeliverReply(f.ref, ls.now)
	}
}

func (ls *lockstep) cycles(n int) {
	for ; n > 0; n-- {
		ls.sm.Cycle(ls.now)
		ls.ref.Cycle(ls.now)
		ls.compare()
		ls.now++
	}
}

// compare holds the SM to the reference after a cycle: the outbox request
// stream, every counter (StallUnits to the bit), residency, what the block
// sources saw, the L1 counters a memoised blocked retry must keep booking,
// and the SM's own invariants.
func (ls *lockstep) compare() {
	t, sm, ref := ls.t, ls.sm, ls.ref
	t.Helper()
	if a, b := sm.OutboxLen(), ref.OutboxLen(); a != b {
		t.Fatalf("cycle %d: outbox holds %d requests, reference %d", ls.now, a, b)
	}
	i := 0
	sm.ForEachOutbox(func(r *memreq.Request) {
		want := ref.OutboxAt(i)
		if r.App != want.App || r.SM != want.SM || r.Warp != want.Warp || r.Addr != want.Addr || r.Kind != want.Kind || r.Issued != want.Issued {
			t.Fatalf("cycle %d: outbox[%d] = %v issued %d, reference %v issued %d", ls.now, i, r, r.Issued, want, want.Issued)
		}
		i++
	})
	got, want := sm.Stats(), ref.Stats()
	if math.Float64bits(got.StallUnits) != math.Float64bits(want.StallUnits) {
		t.Fatalf("cycle %d: StallUnits %v (%#x), reference %v (%#x)", ls.now, got.StallUnits, math.Float64bits(got.StallUnits), want.StallUnits, math.Float64bits(want.StallUnits))
	}
	if refmodel.SMStats(got) != want {
		t.Fatalf("cycle %d: stats\n  %+v\nreference\n  %+v", ls.now, got, want)
	}
	if a, b := sm.ResidentBlocks(), ref.ResidentBlocks(); a != b {
		t.Fatalf("cycle %d: %d resident blocks, reference %d", ls.now, a, b)
	}
	if *ls.src[0] != *ls.src[1] {
		t.Fatalf("cycle %d: block source saw %+v, reference's saw %+v", ls.now, *ls.src[0], *ls.src[1])
	}
	acc, blk := ref.L1Counts()
	if st := sm.l1.Stats(0); st.Accesses != acc || st.Blockings != blk {
		t.Fatalf("cycle %d: L1 booked %d accesses / %d blockings, reference %d / %d", ls.now, st.Accesses, st.Blockings, acc, blk)
	}
	if err := sm.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", ls.now, err)
	}
	if ls.observe != nil {
		ls.observe(ls)
	}
}

func (ls *lockstep) run(ops []byte) {
	for _, b := range ops {
		switch int(b-'0') % 10 {
		case 0:
			ls.cycles(1)
		case 1:
			ls.pop()
		case 2:
			ls.deliver(1)
		case 3:
			ls.deliver(len(ls.inFlight))
		case 4:
			ls.sm.Drain()
			ls.ref.Drain()
		case 5:
			if ls.sm.Idle() {
				ls.assign()
			}
		case 6:
			ls.cycles(8)
		case 7:
			for ls.sm.OutboxLen() > 0 {
				ls.pop()
			}
		case 8:
			ls.cycles(40)
		case 9:
			for k := 0; k < 16; k++ {
				due := 0
				for due < len(ls.inFlight) && ls.inFlight[due].sent+20 <= ls.now {
					due++
				}
				ls.deliver(due)
				ls.cycles(1)
				ls.pop()
				ls.pop()
			}
		}
	}
}

// FuzzSMCycle drives an SM and the reference SM of internal/refmodel in
// lockstep (see the driver above) and fails on the first cycle after which
// they differ or SM.CheckInvariants objects. The named seeds under
// testdata/fuzz/FuzzSMCycle each hold the SM in one state of the issue
// path's event table (DESIGN §10.2); TestFuzzSMCycleSeedsReachTheirStates
// keeps them honest.
func FuzzSMCycle(f *testing.F) {
	f.Add([]byte("0000000000" + "8888"))                   // pure compute, default everything
	f.Add([]byte("2200100000" + "99999999"))               // loads and replies, engine-like
	f.Add([]byte("3201122011" + "9999" + "489995" + "99")) // stores, barriers, drain, reassign
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader || len(data) > 1024 {
			return
		}
		newLockstep(t, data[:fuzzHeader]).run(data[fuzzHeader:])
	})
}
