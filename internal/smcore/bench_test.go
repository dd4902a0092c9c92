package smcore

import (
	"math"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
)

// benchMemory answers an SM the way the engine's step does, minus the engine:
// up to two requests leave the outbox per cycle, stores vanish, and a load's
// reply arrives a fixed latency after it left.
type benchMemory struct {
	sm       *SM
	latency  uint64
	inFlight []*memreq.Request // loads in departure order, Issued = due cycle
	head     int
}

func (m *benchMemory) cycle(now uint64) {
	for m.head < len(m.inFlight) && m.inFlight[m.head].Issued <= now {
		r := m.inFlight[m.head]
		m.head++
		r.Issued = now - m.latency
		m.sm.DeliverReply(r, now)
	}
	if m.head == len(m.inFlight) {
		m.inFlight, m.head = m.inFlight[:0], 0
	}
	m.sm.Cycle(now)
	for k := 0; k < 2 && m.sm.OutboxLen() > 0; k++ {
		r := m.sm.PopOutbox()
		if r.Kind == memreq.Write {
			m.sm.pool.Put(r)
			continue
		}
		r.Issued = now + m.latency
		m.inFlight = append(m.inFlight, r)
	}
}

// benchShapes are the two states the engine's bench workloads hold an SM in
// (DESIGN §10.2): saturated — the CT kernel, 48 resident warps, both issue
// slots filled nearly every cycle, so the cost is per compute instruction —
// and blocked — the SB kernel with replies slow enough that every L1 MSHR
// stays allocated, so most cycles end on a warp retrying a structural hazard.
var benchShapes = []struct {
	name    string
	abbr    string
	latency uint64
	check   func(st Stats, mshrFull, cycles uint64) bool
}{
	{"saturated", "CT", 200, func(st Stats, _, cycles uint64) bool {
		return float64(st.Issued) > 1.9*float64(cycles)
	}},
	{"blocked", "SB", 1200, func(st Stats, mshrFull, cycles uint64) bool {
		return mshrFull > cycles*9/10 && st.StallUnits > 0.5*float64(cycles)
	}},
}

// benchSM builds one SM against benchMemory, runs it into the steady state
// of shape i, checks it is the state named there, and returns it with the
// next cycle to run. cruised is how many of the probe's cycles the SM
// advanced in closed form.
func benchSM(tb testing.TB, i int) (mem *benchMemory, now, cruised, probe uint64) {
	bc := benchShapes[i]
	p, ok := kernels.ByAbbr(bc.abbr)
	if !ok {
		tb.Fatalf("no kernel %s", bc.abbr)
	}
	cfg := config.Default()
	amap := memreq.NewAddrMap(cfg.L1.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
	sm := New(0, cfg, amap, nil)
	sm.Assign(0, &fakeSource{p: p, blocks: math.MaxInt})
	mem = &benchMemory{sm: sm, latency: bc.latency}

	const warm = 20_000
	probe = 20_000
	for ; now < warm; now++ {
		mem.cycle(now)
	}
	sm.ResetStats()
	before := sm.cruised
	var mshrFull uint64
	for ; now < warm+probe; now++ {
		mem.cycle(now)
		if sm.l1.MSHRsInUse() == cfg.L1.MSHRs {
			mshrFull++
		}
	}
	st := sm.Stats()
	if !bc.check(st, mshrFull, probe) {
		tb.Fatalf("not the %s state: issued %d, stall units %.0f, MSHRs full %d of %d cycles",
			bc.name, st.Issued, st.StallUnits, mshrFull, probe)
	}
	if err := sm.CheckInvariants(); err != nil {
		tb.Fatal(err)
	}
	return mem, now, sm.cruised - before, probe
}

// BenchmarkSMCycle times one SM cycle, one op per cycle, in each of
// benchShapes.
func BenchmarkSMCycle(b *testing.B) {
	for i, bc := range benchShapes {
		b.Run(bc.name, func(b *testing.B) {
			mem, now, _, _ := benchSM(b, i)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mem.cycle(now)
				now++
			}
		})
	}
}

// TestCruiseEngages holds the compute cruise to the shapes BenchmarkSMCycle
// times: the saturated SM advances at least half its cycles in closed form,
// the blocked one none. A change that silently turns the cruise off fails
// here rather than only in a benchmark.
func TestCruiseEngages(t *testing.T) {
	for i, bc := range benchShapes {
		_, _, cruised, probe := benchSM(t, i)
		t.Logf("%s: %d of %d cycles cruised", bc.name, cruised, probe)
		switch {
		case bc.name == "saturated" && cruised < probe/2:
			t.Errorf("saturated: %d of %d cycles cruised, want at least half", cruised, probe)
		case bc.name == "blocked" && cruised != 0:
			t.Errorf("blocked: %d of %d cycles cruised, want none", cruised, probe)
		}
	}
}
