package fleet

import (
	"fmt"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
	"dasesim/internal/sim"
)

// Engine produces one scheduling interval of ground truth for one GPU's
// resident jobs: the interval snapshot the DASE signal is computed from, and
// the warp instructions each job retired (its progress toward JobSpec.Work).
//
// Two implementations ship: SimEngine runs the real cycle engine, and
// ModelEngine synthesizes counters from the kernel profiles in closed form —
// cheap enough for thousand-iteration property suites and large arrival
// sweeps.
//
// What Interval returns may be engine-owned: it is valid until the next
// Interval call for the same gpu, and results for different GPUs never alias.
// An engine value serves one Fleet, which calls it sequentially and consumes
// each result before asking that GPU again.
type Engine interface {
	Name() string
	// Interval simulates intervalCycles of the given co-schedule. profiles
	// and alloc are parallel; alloc sums to the GPU's SM count. gpu and
	// epoch identify the invocation so engines can derive deterministic
	// per-run seeds from the fleet seed.
	Interval(gpu, epoch int, profiles []kernels.Profile, alloc []int, seed, intervalCycles uint64) (*sim.IntervalSnapshot, []uint64, error)
}

// mix64 is splitmix64, the repo-standard deterministic hash step.
func mix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// engineSeed derives the per-invocation simulation seed. It depends only on
// (fleet seed, gpu, epoch), never on wall clock or map order, so a replayed
// trace reproduces every engine run bit for bit.
func engineSeed(seed uint64, gpu, epoch int) uint64 {
	s := seed ^ uint64(gpu+1)*0xc2b2ae3d27d4eb4f
	s ^= uint64(epoch+1) * 0xd1342543de82ef95
	return mix64(&s)
}

// SimEngine drives the real cycle engine: each scheduling interval of each
// busy GPU is one fresh shared simulation of its resident kernels under the
// current SM partition, seeded per (gpu, epoch).
type SimEngine struct {
	Cfg config.Config
}

// Name implements Engine.
func (e *SimEngine) Name() string { return "sim" }

// Interval implements Engine.
func (e *SimEngine) Interval(gpu, epoch int, profiles []kernels.Profile, alloc []int, seed, intervalCycles uint64) (*sim.IntervalSnapshot, []uint64, error) {
	res, err := sim.RunShared(e.Cfg, profiles, alloc, intervalCycles, engineSeed(seed, gpu, epoch))
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: gpu %d epoch %d: %w", gpu, epoch, err)
	}
	if len(res.Snapshots) == 0 {
		return nil, nil, fmt.Errorf("fleet: gpu %d epoch %d: run produced no snapshots", gpu, epoch)
	}
	snap := res.Snapshots[len(res.Snapshots)-1]
	instr := make([]uint64, len(res.Apps))
	for i := range res.Apps {
		instr[i] = res.Apps[i].Instructions
	}
	return &snap, instr, nil
}

// ModelEngine synthesizes interval counters from the kernel profiles in
// closed form: each resident kernel demands DRAM lines in proportion to its
// memory intensity and SM share, demand beyond the bus peak is scaled back
// proportionally, and the counters DASE reads (α, BLP, served requests,
// row/bank/LLC interference) are derived from that contention level. The
// model is not the cycle engine — it is a deterministic signal generator
// whose estimates rank contention sensibly, which is all the scheduler-level
// properties (conservation, quota safety, bookkeeping) need.
type ModelEngine struct {
	Cfg config.Config

	out []*modelResult // per GPU index: the buffers Interval's results live in
}

// modelResult is one GPU's engine-owned result, overwritten by its next
// Interval.
type modelResult struct {
	snap   sim.IntervalSnapshot
	instr  []uint64
	demand []float64
}

// Name implements Engine.
func (e *ModelEngine) Name() string { return "model" }

// Interval implements Engine. The snapshot and instruction counts it returns
// belong to the engine (see Engine).
func (e *ModelEngine) Interval(gpu, epoch int, profiles []kernels.Profile, alloc []int, seed, intervalCycles uint64) (*sim.IntervalSnapshot, []uint64, error) {
	for len(e.out) <= gpu {
		e.out = append(e.out, new(modelResult))
	}
	r := e.out[gpu]
	r.demand = synthesizeSnapshot(&r.snap, r.demand, &e.Cfg, profiles, alloc, intervalCycles, engineSeed(seed, gpu, epoch))
	r.instr = r.instr[:0]
	for i := range profiles {
		r.instr = append(r.instr, modelInstructions(&r.snap.Apps[i], &profiles[i]))
	}
	return &r.snap, r.instr, nil
}

// modelInstructions converts a synthesized app interval into retired warp
// instructions: the issue rate degrades with the memory stall fraction, and
// at least one instruction retires per interval so every job always makes
// forward progress.
func modelInstructions(a *sim.AppInterval, p *kernels.Profile) uint64 {
	issue := float64(a.SMCycles) * (1 - 0.85*a.Alpha) / float64(p.ComputeLat)
	if issue < 1 {
		issue = 1
	}
	return uint64(issue)
}

// synthesizeSnapshot is the closed-form counter model shared by ModelEngine
// and the placement predictor: given the co-schedule, produce the
// IntervalSnapshot DASE will read. Jitter (a few percent, hashed from seed)
// keeps property-test scenarios from all collapsing onto the same numbers
// without breaking determinism. It overwrites *snap, reusing the capacity of
// snap.Apps and of the demand scratch, which it returns (grown if it had to
// be) for the next call; a caller that keeps the snapshot passes a fresh one.
func synthesizeSnapshot(snap *sim.IntervalSnapshot, demand []float64, cfg *config.Config, profiles []kernels.Profile, alloc []int, intervalCycles, seed uint64) []float64 {
	n := len(profiles)
	apps := snap.Apps
	if cap(apps) < n {
		apps = make([]sim.AppInterval, n)
	}
	// config.Config's PeakRequestsPerCycle and PeakActivationsPerCycle, from
	// the fields, so the large value receiver is not copied per call.
	peak := float64(cfg.NumMCs) / float64(cfg.Mem.TBurst)
	peakAct := peak
	if cfg.Mem.TFAW != 0 {
		peakAct = float64(cfg.NumMCs) * 4 / float64(cfg.Mem.TFAW)
	}
	*snap = sim.IntervalSnapshot{
		Cycle:          intervalCycles,
		IntervalCycles: intervalCycles,
		NumSMs:         cfg.NumSMs,
		NumMCs:         cfg.NumMCs,
		PeakReqPerCyc:  peak,
		PeakActPerCyc:  peakAct,
		ReqMaxFactor:   cfg.RequestMaxFactor,
		Apps:           apps[:n],
	}
	// Per-app demanded lines per cycle, before bus contention.
	if cap(demand) < n {
		demand = make([]float64, n)
	}
	demand = demand[:n]
	total := 0.0
	for i := range profiles {
		p := &profiles[i]
		perSM := p.MemFrac * float64(p.CoalescedLines) / float64(p.ComputeLat)
		h := seed ^ uint64(i+1)*0xff51afd7ed558ccd
		jitter := 0.95 + 0.1*float64(mix64(&h)>>11)/(1<<53)
		demand[i] = float64(alloc[i]) * perSM * jitter
		total += demand[i]
	}
	scale := 1.0
	if total > peak && total > 0 {
		scale = peak / total
	}
	contention := total / peak // >1 means the bus is oversubscribed
	for i := range profiles {
		p := &profiles[i]
		a := &snap.Apps[i]
		*a = sim.AppInterval{} // the slot may hold a previous co-schedule's app
		a.App = memreq.AppID(i)
		a.SMs = alloc[i]
		a.SMCycles = uint64(alloc[i]) * intervalCycles
		served := demand[i] * scale * float64(intervalCycles)
		if served < 1 {
			served = 1
		}
		a.Served = uint64(served)
		a.Enqueued = a.Served

		// Memory stall fraction rises with intensity and contention.
		alpha := p.MemFrac * (2 + contention)
		if alpha > 1 {
			alpha = 1
		}
		a.Alpha = alpha

		// Row locality from the profile's sequential-run length; co-runners
		// steal rows in proportion to their share of the traffic.
		share := demand[i] / total
		rowHitAlone := 1 - 1/float64(p.SeqRun+1)
		rowHit := rowHitAlone * (0.5 + 0.5*share)
		hits := uint64(float64(a.Served) * rowHit)
		a.RowHits = hits
		a.RowMisses = a.Served - hits
		a.ERBMiss = uint64(float64(a.Served) * rowHitAlone * (1 - share) * 0.5)

		// Bank-level parallelism saturates with traffic; blocked-bank time
		// grows with the co-runners' demand.
		banks := float64(cfg.NumMCs * cfg.Mem.NumBanks)
		a.BLP = 1 + (banks-1)*demand[i]/(demand[i]+1)
		a.BLPAccess = a.BLP * share
		a.BLPBlocked = (1 - share) * contention * 0.3
		a.TimeInBanks = a.Served * (cfg.Mem.TCAS + cfg.Mem.TBurst)

		// Cache contention: small footprints lose L2 lines to co-runners.
		if p.FootprintLines < 1<<16 && len(profiles) > 1 {
			a.ELLCMiss = float64(a.Served) * (1 - share) * 0.2
		}

		a.TBSum = p.Blocks
		shared := alloc[i] * maxResidentBlocks(cfg, p)
		if shared > p.Blocks {
			shared = p.Blocks
		}
		a.TBShared = shared
		a.MemInsts = a.Served / uint64(p.CoalescedLines)
		a.Issued = modelInstructions(a, p)
		a.ActiveCycles = uint64(float64(a.SMCycles) * (1 - 0.5*alpha))
	}
	snap.BusCycles = uint64(float64(intervalCycles) * scale * total / peak)
	return demand
}

// maxResidentBlocks is the residency bound of one SM for the profile.
func maxResidentBlocks(cfg *config.Config, p *kernels.Profile) int {
	perSM := cfg.SM.MaxBlocks
	if p.WarpsPerBlock > 0 {
		if byWarps := cfg.SM.MaxWarps / p.WarpsPerBlock; byWarps < perSM {
			perSM = byWarps
		}
	}
	if perSM < 1 {
		perSM = 1
	}
	return perSM
}
