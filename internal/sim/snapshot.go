package sim

import (
	"strconv"

	"dasesim/internal/memreq"
)

// AppInterval is everything the estimators can observe about one app over
// one estimation interval — the software view of the paper's Table I
// hardware counters.
type AppInterval struct {
	App memreq.AppID

	// SM-side.
	SMs          int     // SMs owned at snapshot time
	Alpha        float64 // memory stall fraction (Eq. 15's α)
	Issued       uint64  // warp instructions this interval
	SMCycles     uint64  // SM-cycles accumulated (≈ SMs * interval)
	ActiveCycles uint64
	MemInsts     uint64

	// Memory-side, summed over all partitions.
	Served      uint64  // Request_i: requests whose DRAM transfer completed
	Enqueued    uint64  // requests admitted to DRAM queues
	TimeInBanks uint64  // Σ per-request bank occupancy (Eq. 12 numerator)
	ERBMiss     uint64  // extra row-buffer misses (Eq. 10)
	ELLCMiss    float64 // extra LLC misses scaled from the sampled ATD (Eq. 13)
	RowHits     uint64
	RowMisses   uint64
	DataCycles  uint64  // DRAM data-bus cycles moving this app's lines
	BLP         float64 // Eq. 14 denominator (sample-weighted across MCs)
	BLPAccess   float64
	BLPBlocked  float64 // banks occupied by co-runners while this app waits

	// Thread-block state (Eq. 24).
	TBSum    int
	TBShared int

	// Priority-epoch sampling (MISE/ASM): requests served during this
	// app's own highest-priority slice, and the slice length in cycles.
	PrioServed uint64
	PrioCycles uint64
}

// AppField describes how one AppInterval counter is written out. Exactly
// one of Int, Uint and Float is set: the counter's typed getter.
type AppField struct {
	// Name is the counter's dasesim -csv column and /v1/estimate key.
	Name string
	// DASE marks the counters core.DASE reads; the estimate wire carries
	// exactly these.
	DASE  bool
	Int   func(*AppInterval) int
	Uint  func(*AppInterval) uint64
	Float func(*AppInterval) float64
}

// Append appends the counter's value in a as decimal text, floats in 'g'
// form with precision prec (-1: shortest round-trip).
func (f *AppField) Append(buf []byte, a *AppInterval, prec int) []byte {
	switch {
	case f.Int != nil:
		return strconv.AppendInt(buf, int64(f.Int(a)), 10)
	case f.Uint != nil:
		return strconv.AppendUint(buf, f.Uint(a), 10)
	default:
		return strconv.AppendFloat(buf, f.Float(a), 'g', prec, 64)
	}
}

// AppFields lists every AppInterval counter but App, in declaration order
// (TestAppFieldsCoverAppInterval holds it to the struct). Adding a counter
// means adding a field above and a row here.
var AppFields = []AppField{
	{Name: "sms", DASE: true, Int: func(a *AppInterval) int { return a.SMs }},
	{Name: "alpha", DASE: true, Float: func(a *AppInterval) float64 { return a.Alpha }},
	{Name: "issued", Uint: func(a *AppInterval) uint64 { return a.Issued }},
	{Name: "sm_cycles", Uint: func(a *AppInterval) uint64 { return a.SMCycles }},
	{Name: "active_cycles", Uint: func(a *AppInterval) uint64 { return a.ActiveCycles }},
	{Name: "mem_insts", Uint: func(a *AppInterval) uint64 { return a.MemInsts }},
	{Name: "served", DASE: true, Uint: func(a *AppInterval) uint64 { return a.Served }},
	{Name: "enqueued", Uint: func(a *AppInterval) uint64 { return a.Enqueued }},
	{Name: "time_in_banks", DASE: true, Uint: func(a *AppInterval) uint64 { return a.TimeInBanks }},
	{Name: "erb_miss", DASE: true, Uint: func(a *AppInterval) uint64 { return a.ERBMiss }},
	{Name: "ellc_miss", DASE: true, Float: func(a *AppInterval) float64 { return a.ELLCMiss }},
	{Name: "row_hits", DASE: true, Uint: func(a *AppInterval) uint64 { return a.RowHits }},
	{Name: "row_misses", DASE: true, Uint: func(a *AppInterval) uint64 { return a.RowMisses }},
	{Name: "data_cycles", Uint: func(a *AppInterval) uint64 { return a.DataCycles }},
	{Name: "blp", DASE: true, Float: func(a *AppInterval) float64 { return a.BLP }},
	{Name: "blp_access", DASE: true, Float: func(a *AppInterval) float64 { return a.BLPAccess }},
	{Name: "blp_blocked", DASE: true, Float: func(a *AppInterval) float64 { return a.BLPBlocked }},
	{Name: "tb_sum", DASE: true, Int: func(a *AppInterval) int { return a.TBSum }},
	{Name: "tb_shared", DASE: true, Int: func(a *AppInterval) int { return a.TBShared }},
	{Name: "prio_served", Uint: func(a *AppInterval) uint64 { return a.PrioServed }},
	{Name: "prio_cycles", Uint: func(a *AppInterval) uint64 { return a.PrioCycles }},
}

// IntervalSnapshot is the estimator/policy view of one interval.
type IntervalSnapshot struct {
	Cycle          uint64 // cycle at which the snapshot was taken
	IntervalCycles uint64 // interval length (Timeshared)
	NumSMs         int
	NumMCs         int
	PeakReqPerCyc  float64 // aggregate DRAM lines per cycle at 100% bus use
	PeakActPerCyc  float64 // aggregate row activations per cycle (tFAW bound)
	ReqMaxFactor   float64 // the empirical 0.6 of Eq. 20

	Apps []AppInterval

	// Bus decomposition summed over controllers (Fig. 2(b)).
	BusCycles uint64
	BusWasted uint64
	BusIdle   uint64
}

// RequestMax returns the derated maximum serviceable requests over the
// interval (Eq. 20).
func (s *IntervalSnapshot) RequestMax() float64 {
	return s.PeakReqPerCyc * float64(s.IntervalCycles) * s.ReqMaxFactor
}

// TotalServed sums served requests across apps (Eq. 18's Σ Request_i).
func (s *IntervalSnapshot) TotalServed() uint64 {
	var t uint64
	for i := range s.Apps {
		t += s.Apps[i].Served
	}
	return t
}

// takeSnapshot collects all interval counters. It flushes SM stats into the
// windows first so the SM-side numbers cover the full interval.
func (g *GPU) takeSnapshot() *IntervalSnapshot {
	for _, sm := range g.sms {
		g.flushSM(sm)
	}
	// Close the currently open priority slice so its served count lands in
	// this snapshot.
	if g.priorityEpochs && g.curPrio != memreq.InvalidApp {
		g.prioServed[g.curPrio] += g.servedTotal(g.curPrio) - g.prioServedBase[g.curPrio]
		g.prioServedBase[g.curPrio] = g.servedTotal(g.curPrio)
	}

	snap := &IntervalSnapshot{
		Cycle:          g.cycle,
		IntervalCycles: g.cycle - g.intervalStart,
		NumSMs:         g.cfg.NumSMs,
		NumMCs:         g.cfg.NumMCs,
		PeakReqPerCyc:  g.cfg.PeakRequestsPerCycle(),
		PeakActPerCyc:  g.cfg.PeakActivationsPerCycle(),
		ReqMaxFactor:   g.cfg.RequestMaxFactor,
		Apps:           make([]AppInterval, len(g.apps)),
	}
	alloc := g.Allocation()
	for i, app := range g.apps {
		w := g.window[i]
		ai := AppInterval{
			App:          app.ID,
			SMs:          alloc[i],
			Issued:       w.issued,
			SMCycles:     w.smCycles,
			ActiveCycles: w.activeCycles,
			MemInsts:     w.memInsts,
			TBSum:        app.TBSum(),
			TBShared:     app.TBShared(),
			PrioServed:   g.prioServed[i],
			PrioCycles:   g.prioCycles[i],
		}
		if w.activeCycles > 0 {
			ai.Alpha = w.stallUnits / float64(w.activeCycles)
		}
		var blpSum, blpAccSum, blpBlkSum, blpSamples float64
		for _, p := range g.parts {
			c := p.mc.Counters(app.ID)
			ai.Served += c.Served
			ai.Enqueued += c.Enqueued
			ai.TimeInBanks += c.TimeInBanks
			ai.ERBMiss += c.ERBMiss
			ai.RowHits += c.RowHits
			ai.RowMisses += c.RowMisses
			ai.DataCycles += c.DataBusCycles
			ai.ELLCMiss += p.extraMisses(app.ID)
			blpSum += float64(c.BLPSum)
			blpAccSum += float64(c.BLPAccessSum)
			blpBlkSum += float64(c.BLPBlockedSum)
			blpSamples += float64(c.BLPSamples)
		}
		if blpSamples > 0 {
			// Average per-controller BLP, scaled to the whole memory
			// system: an app spreading over all controllers sees the sum
			// of per-controller parallelism.
			ai.BLP = blpSum / blpSamples * float64(g.cfg.NumMCs)
			ai.BLPAccess = blpAccSum / blpSamples * float64(g.cfg.NumMCs)
			ai.BLPBlocked = blpBlkSum / blpSamples * float64(g.cfg.NumMCs)
		}
		snap.Apps[i] = ai
	}
	for _, p := range g.parts {
		b := p.mc.Bus()
		var mcData uint64
		for i := range g.apps {
			mcData += p.mc.Counters(g.apps[i].ID).DataBusCycles
		}
		snap.BusCycles += b.Cycles
		snap.BusWasted += b.Wasted(mcData)
		snap.BusIdle += b.Idle
	}
	return snap
}
