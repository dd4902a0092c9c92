package fleet

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
	"dasesim/internal/sim"
)

// The placement predictor is memoised and writes into per-GPU scratch; the
// functions below are what it replaced — every call allocates fresh and
// recomputes from the resident set — kept as the reference the incremental
// path is compared with, bit for bit.

// refSynthesizeSnapshot is the allocate-fresh closed-form counter model.
func refSynthesizeSnapshot(cfg config.Config, profiles []kernels.Profile, alloc []int, intervalCycles, seed uint64) *sim.IntervalSnapshot {
	snap := &sim.IntervalSnapshot{
		Cycle:          intervalCycles,
		IntervalCycles: intervalCycles,
		NumSMs:         cfg.NumSMs,
		NumMCs:         cfg.NumMCs,
		PeakReqPerCyc:  cfg.PeakRequestsPerCycle(),
		PeakActPerCyc:  cfg.PeakActivationsPerCycle(),
		ReqMaxFactor:   cfg.RequestMaxFactor,
		Apps:           make([]sim.AppInterval, len(profiles)),
	}
	demand := make([]float64, len(profiles))
	total := 0.0
	for i := range profiles {
		p := &profiles[i]
		perSM := p.MemFrac * float64(p.CoalescedLines) / float64(p.ComputeLat)
		h := seed ^ uint64(i+1)*0xff51afd7ed558ccd
		jitter := 0.95 + 0.1*float64(mix64(&h)>>11)/(1<<53)
		demand[i] = float64(alloc[i]) * perSM * jitter
		total += demand[i]
	}
	peak := snap.PeakReqPerCyc
	scale := 1.0
	if total > peak && total > 0 {
		scale = peak / total
	}
	contention := total / peak
	for i := range profiles {
		p := &profiles[i]
		a := &snap.Apps[i]
		a.App = memreq.AppID(i)
		a.SMs = alloc[i]
		a.SMCycles = uint64(alloc[i]) * intervalCycles
		served := demand[i] * scale * float64(intervalCycles)
		if served < 1 {
			served = 1
		}
		a.Served = uint64(served)
		a.Enqueued = a.Served

		alpha := p.MemFrac * (2 + contention)
		if alpha > 1 {
			alpha = 1
		}
		a.Alpha = alpha

		share := demand[i] / total
		rowHitAlone := 1 - 1/float64(p.SeqRun+1)
		rowHit := rowHitAlone * (0.5 + 0.5*share)
		hits := uint64(float64(a.Served) * rowHit)
		a.RowHits = hits
		a.RowMisses = a.Served - hits
		a.ERBMiss = uint64(float64(a.Served) * rowHitAlone * (1 - share) * 0.5)

		banks := float64(cfg.NumMCs * cfg.Mem.NumBanks)
		a.BLP = 1 + (banks-1)*demand[i]/(demand[i]+1)
		a.BLPAccess = a.BLP * share
		a.BLPBlocked = (1 - share) * contention * 0.3
		a.TimeInBanks = a.Served * (cfg.Mem.TCAS + cfg.Mem.TBurst)

		if p.FootprintLines < 1<<16 && len(profiles) > 1 {
			a.ELLCMiss = float64(a.Served) * (1 - share) * 0.2
		}

		a.TBSum = p.Blocks
		shared := alloc[i] * maxResidentBlocks(&cfg, p)
		if shared > p.Blocks {
			shared = p.Blocks
		}
		a.TBShared = shared
		a.MemInsts = a.Served / uint64(p.CoalescedLines)
		a.Issued = modelInstructions(a, p)
		a.ActiveCycles = uint64(float64(a.SMCycles) * (1 - 0.5*alpha))
	}
	snap.BusCycles = uint64(float64(intervalCycles) * scale * total / peak)
	return snap
}

// refPredictContention scores placing a job with the given kernel on g from
// nothing but g's resident list. It touches none of g's scratch.
func refPredictContention(f *Fleet, g *gpuState, kernel kernels.Profile) float64 {
	n := len(g.jobs) + 1
	profiles := make([]kernels.Profile, 0, n)
	alloc := make([]int, 0, n)
	used := 0
	for _, r := range g.jobs {
		profiles = append(profiles, *r.spec.Kernel)
		alloc = append(alloc, r.spec.MinSMs)
		used += r.spec.MinSMs
	}
	profiles = append(profiles, kernel)
	alloc = append(alloc, f.cfg.GPU.NumSMs-used)
	snap := refSynthesizeSnapshot(f.cfg.GPU, profiles, alloc, f.cfg.IntervalCycles,
		engineSeed(f.cfg.Seed, g.id, -1))
	worst := 1.0
	for _, e := range f.est.EstimateDetailed(snap) {
		if e.Slowdown > worst {
			worst = e.Slowdown
		}
	}
	if len(g.jobs) == 0 {
		worst -= 1e-9
	}
	return worst
}

// memoEntriesChecked counts the memo entries checkInvariants has compared
// with the reference, so a suite can tell its sweep was not vacuous.
var memoEntriesChecked int

// checkInvariants recounts everything the fleet maintains incrementally:
// each GPU's kernel list and reserved-SM count against its resident list,
// and every live score-memo entry against the reference predictor, bit for
// bit.
func (f *Fleet) checkInvariants() error {
	for _, g := range f.gpus {
		if len(g.alloc) != len(g.jobs) {
			return fmt.Errorf("gpu %d: %d residents but %d partition entries", g.id, len(g.jobs), len(g.alloc))
		}
		if len(g.profiles) != len(g.jobs) {
			return fmt.Errorf("gpu %d: %d residents but %d entries in the kernel list", g.id, len(g.jobs), len(g.profiles))
		}
		for i, j := range g.jobs {
			if g.profiles[i] != *j.spec.Kernel {
				return fmt.Errorf("gpu %d: kernel list entry %d is %s, resident %s runs %s",
					g.id, i, g.profiles[i].Abbr, j.spec.ID, j.spec.Kernel.Abbr)
			}
		}
		reserved := 0
		for _, j := range g.jobs {
			reserved += j.spec.MinSMs
		}
		if g.reserved != reserved {
			return fmt.Errorf("gpu %d: maintained reserved SMs %d, recount %d", g.id, g.reserved, reserved)
		}
		for i := range g.memo {
			e := &g.memo[i]
			want := refPredictContention(f, g, *e.kernel)
			if math.Float64bits(e.score) != math.Float64bits(want) {
				return fmt.Errorf("gpu %d: stale score memo for newcomer %s: memo %v, reference %v",
					g.id, e.kernel.Abbr, e.score, want)
			}
			memoEntriesChecked++
		}
	}
	return nil
}

// tickChecked is Tick followed by the invariant sweep.
func tickChecked(t *testing.T, f *Fleet) {
	t.Helper()
	if err := f.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := f.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSynthesizeSnapshotMatchesReference drives one scratch snapshot through
// co-schedules of shrinking and growing size — so every reused slot holds a
// previous app's counters — and requires each result to equal the reference
// built from fresh memory.
func TestSynthesizeSnapshotMatchesReference(t *testing.T) {
	cfg := config.Default()
	all := kernels.All()
	var snap sim.IntervalSnapshot
	var demand []float64
	for round, n := range []int{4, 1, 3, 2, 4, 1} {
		profiles := make([]kernels.Profile, n)
		alloc := make([]int, n)
		for i := range profiles {
			profiles[i] = all[(round*5+i*3)%len(all)]
			alloc[i] = cfg.NumSMs / n
		}
		seed := engineSeed(9, round, round)
		demand = synthesizeSnapshot(&snap, demand, &cfg, profiles, alloc, 20_000, seed)
		want := refSynthesizeSnapshot(cfg, profiles, alloc, 20_000, seed)
		if !reflect.DeepEqual(&snap, want) {
			t.Fatalf("round %d (%d apps): scratch snapshot differs from the reference\n got %+v\nwant %+v", round, n, snap, *want)
		}
		for i := range snap.Apps {
			if snap.Apps[i].App != memreq.AppID(i) {
				t.Fatalf("round %d: app %d labelled %d", round, i, snap.Apps[i].App)
			}
		}
	}
}

// TestMutationStaleScoreMemo proves the memo's oracle sharp. The memo is
// sound only because the two writers of a GPU's resident list clear it; each
// case runs the real step, puts back the memo the step cleared — the state
// a dropped invalidation leaves behind — and requires checkInvariants to
// object. The remaining cases do the same for the maintained reserved-SM
// count and kernel list.
func TestMutationStaleScoreMemo(t *testing.T) {
	bs, ct, sp := testKernel(t, "BS"), testKernel(t, "CT"), testKernel(t, "SP")
	build := func(t *testing.T, workA uint64) (*Fleet, *gpuState) {
		f, err := New(testConfig(1, TenantSpec{Name: "a", QuotaSMs: 16, Weight: 1}))
		if err != nil {
			t.Fatal(err)
		}
		for _, js := range []JobSpec{
			{ID: "A", Tenant: "a", Kernel: bs, MinSMs: 4, Work: workA},
			{ID: "B", Tenant: "a", Kernel: ct, MinSMs: 4, Work: 1 << 40},
		} {
			if err := f.Submit(js); err != nil {
				t.Fatal(err)
			}
		}
		return f, f.gpus[0]
	}
	mustHold := func(t *testing.T, f *Fleet, when string) {
		t.Helper()
		if err := f.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	mustObject := func(t *testing.T, f *Fleet, what string) {
		t.Helper()
		err := f.checkInvariants()
		if err == nil {
			t.Fatalf("checkInvariants accepted %s", what)
		}
		if !strings.Contains(err.Error(), what) {
			t.Fatalf("wrong failure: %v", err)
		}
	}

	t.Run("place forgets to invalidate", func(t *testing.T) {
		f, g := build(t, 1<<40)
		f.computeDeserved()
		for _, j := range f.tenants[0].queue {
			f.predictContention(g, j) // what chooseGPU asks first
		}
		if len(g.memo) != 2 {
			t.Fatalf("memo holds %d entries, want one per queued kernel", len(g.memo))
		}
		mustHold(t, f, "memo for the empty GPU")
		stale := append([]scoreEntry(nil), g.memo...)
		if got := len(f.place()); got != 2 {
			t.Fatalf("placed %d jobs, want 2", got)
		}
		mustHold(t, f, "after place")
		g.memo = stale
		mustObject(t, f, "stale score memo")
	})

	// untilFinish runs a Tick's steps up to, not including, finishJobs.
	untilFinish := func(t *testing.T, f *Fleet, g *gpuState) {
		t.Helper()
		f.computeDeserved()
		placements := f.place()
		f.repartition(g)
		if err := f.execute(); err != nil {
			t.Fatal(err)
		}
		f.account(placements)
	}

	t.Run("finishJobs forgets to invalidate", func(t *testing.T) {
		f, g := build(t, 1) // A retires in its first interval
		untilFinish(t, f, g)
		f.predictContention(g, &job{spec: JobSpec{Kernel: sp, MinSMs: 2}})
		mustHold(t, f, "memo beside both residents")
		stale := append([]scoreEntry(nil), g.memo...)
		f.finishJobs()
		if len(g.jobs) != 1 {
			t.Fatalf("%d residents after finishJobs, want 1", len(g.jobs))
		}
		mustHold(t, f, "after finishJobs")
		g.memo = stale
		mustObject(t, f, "stale score memo")
	})

	t.Run("reserved count drifts", func(t *testing.T) {
		f, g := build(t, 1<<40)
		tickChecked(t, f)
		g.reserved++
		mustObject(t, f, "reserved SMs")
	})

	t.Run("place appends the kernels out of order", func(t *testing.T) {
		f, g := build(t, 1<<40)
		f.computeDeserved()
		f.place()
		mustHold(t, f, "after place")
		g.profiles[0], g.profiles[1] = g.profiles[1], g.profiles[0]
		mustObject(t, f, "kernel list entry")
	})

	t.Run("predictContention leaves the newcomer in the kernel list", func(t *testing.T) {
		f, g := build(t, 1<<40)
		tickChecked(t, f)
		f.predictContention(g, &job{spec: JobSpec{Kernel: sp, MinSMs: 2}})
		mustHold(t, f, "after a score request")
		g.profiles = g.profiles[:len(g.profiles)+1] // the newcomer is still past the end
		if g.profiles[2] != *sp {
			t.Fatalf("slot past the residents holds %s, want the newcomer", g.profiles[2].Abbr)
		}
		mustObject(t, f, "kernel list")
	})

	t.Run("finishJobs forgets the kernel list", func(t *testing.T) {
		f, g := build(t, 1)
		untilFinish(t, f, g)
		stale := append([]kernels.Profile(nil), g.profiles...)
		f.finishJobs()
		mustHold(t, f, "after finishJobs")
		g.profiles = stale
		mustObject(t, f, "kernel list")
	})
}

// TestModelEngineResultOwnership pins ModelEngine's side of the Engine
// contract: a result stays intact across another GPU's Interval, a GPU's next
// Interval reuses its buffers, and every result equals the closed form
// computed into fresh memory.
func TestModelEngineResultOwnership(t *testing.T) {
	cfg := config.Default()
	all := kernels.All()
	e := &ModelEngine{Cfg: cfg}
	type call struct {
		gpu      int
		profiles []kernels.Profile
		alloc    []int
	}
	calls := []call{
		{0, []kernels.Profile{all[0], all[1], all[2]}, []int{4, 6, 6}},
		{1, []kernels.Profile{all[3], all[4]}, []int{10, 6}},
		{0, []kernels.Profile{all[5], all[6]}, []int{9, 7}}, // fewer apps: reused slots
	}
	var first *sim.IntervalSnapshot
	var firstCopy sim.IntervalSnapshot
	var firstInstr, firstInstrCopy []uint64
	for k, c := range calls {
		const seed, cycles, epoch = 7, 20_000, 3
		snap, instr, err := e.Interval(c.gpu, epoch, c.profiles, c.alloc, seed, cycles)
		if err != nil {
			t.Fatal(err)
		}
		want := new(sim.IntervalSnapshot)
		synthesizeSnapshot(want, nil, &cfg, c.profiles, c.alloc, cycles, engineSeed(seed, c.gpu, epoch))
		if !reflect.DeepEqual(snap, want) {
			t.Fatalf("call %d (gpu %d): result differs from a fresh synthesis\n got %+v\nwant %+v", k, c.gpu, *snap, *want)
		}
		if len(instr) != len(c.profiles) {
			t.Fatalf("call %d: %d instruction counts for %d apps", k, len(instr), len(c.profiles))
		}
		for i := range c.profiles {
			if w := modelInstructions(&want.Apps[i], &c.profiles[i]); instr[i] != w {
				t.Fatalf("call %d: app %d retired %d instructions, want %d", k, i, instr[i], w)
			}
		}
		switch k {
		case 0:
			first, firstInstr = snap, instr
			firstCopy = *snap
			firstCopy.Apps = append([]sim.AppInterval(nil), snap.Apps...)
			firstInstrCopy = append([]uint64(nil), instr...)
		case 1:
			if !reflect.DeepEqual(first, &firstCopy) || !reflect.DeepEqual(firstInstr, firstInstrCopy) {
				t.Fatal("gpu 1's Interval wrote into gpu 0's result")
			}
		case 2:
			if snap != first {
				t.Fatal("gpu 0's second Interval did not reuse its snapshot")
			}
		}
	}
}
