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

// BenchmarkSMCycle times one SM cycle, one op per cycle, in the two states
// the engine's bench workloads hold an SM in (DESIGN §10.2): saturated — the
// CT kernel, 48 resident warps, both issue slots filled nearly every cycle,
// so the cost is per compute instruction — and blocked — the SB kernel with
// replies slow enough that every L1 MSHR stays allocated, so most cycles end
// on a warp retrying a structural hazard.
func BenchmarkSMCycle(b *testing.B) {
	for _, bc := range []struct {
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
	} {
		b.Run(bc.name, func(b *testing.B) {
			p, ok := kernels.ByAbbr(bc.abbr)
			if !ok {
				b.Fatalf("no kernel %s", bc.abbr)
			}
			cfg := config.Default()
			amap := memreq.NewAddrMap(cfg.L1.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
			sm := New(0, cfg, amap, nil)
			sm.Assign(0, &fakeSource{p: p, blocks: math.MaxInt})
			mem := &benchMemory{sm: sm, latency: bc.latency}

			// Reach steady state, then check it is the state named above.
			const warm, probe = 20_000, 20_000
			now := uint64(0)
			for ; now < warm; now++ {
				mem.cycle(now)
			}
			sm.ResetStats()
			var mshrFull uint64
			for ; now < warm+probe; now++ {
				mem.cycle(now)
				if sm.l1.MSHRsInUse() == cfg.L1.MSHRs {
					mshrFull++
				}
			}
			if st := sm.Stats(); !bc.check(st, mshrFull, probe) {
				b.Fatalf("not the %s state: issued %d, stall units %.0f, MSHRs full %d of %d cycles",
					bc.name, st.Issued, st.StallUnits, mshrFull, probe)
			}
			if err := sm.CheckInvariants(); err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mem.cycle(now)
				now++
			}
		})
	}
}
