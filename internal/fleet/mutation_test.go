package fleet

import (
	"strings"
	"testing"
)

// The mutation tests prove each fairness invariant sharp: start from a real
// run whose history passes every checker, plant exactly the violation the
// invariant exists to catch, and require the checker to fail. A checker
// that tolerates its own violation class would pass the property suite
// vacuously; these tests make that regression loud.

// cleanHistory produces a passing allocation history with at least one
// placement and a trailing interval with admission headroom.
func cleanHistory(t *testing.T) ([]IntervalRecord, int, int) {
	t.Helper()
	cfg := testConfig(2,
		TenantSpec{Name: "a", QuotaSMs: 20, Weight: 1},
		TenantSpec{Name: "b", QuotaSMs: 12, Weight: 1},
	)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs, ct := testKernel(t, "BS"), testKernel(t, "CT")
	for _, js := range []JobSpec{
		{ID: "a0", Tenant: "a", Kernel: bs, MinSMs: 4, Work: 50_000},
		{ID: "a1", Tenant: "a", Kernel: ct, MinSMs: 6, Work: 50_000},
		{ID: "b0", Tenant: "b", Kernel: ct, MinSMs: 4, Work: 50_000},
	} {
		if err := f.Submit(js); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := f.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	rec := f.Records()
	if err := CheckAll(rec, f.Capacity(), cfg.GPU.NumSMs); err != nil {
		t.Fatalf("baseline history unexpectedly fails: %v", err)
	}
	var placements int
	for i := range rec {
		placements += len(rec[i].Placements)
	}
	if placements == 0 {
		t.Fatal("baseline history has no placements to mutate")
	}
	return rec, f.Capacity(), cfg.GPU.NumSMs
}

// mutate deep-copies the history and applies the corruption, so each
// mutation starts from the same clean baseline.
func mutate(rec []IntervalRecord, fn func(rec []IntervalRecord)) []IntervalRecord {
	out := make([]IntervalRecord, len(rec))
	for i := range rec {
		r := rec[i]
		r.Tenants = append([]TenantRecord(nil), rec[i].Tenants...)
		for j := range r.Tenants {
			r.Tenants[j].QueuedMinSMs = append([]int(nil), rec[i].Tenants[j].QueuedMinSMs...)
		}
		r.GPUs = append([]GPURecord(nil), rec[i].GPUs...)
		r.Placements = append([]Placement(nil), rec[i].Placements...)
		out[i] = r
	}
	fn(out)
	return out
}

// findHeadroom returns an interval index whose first GPU has a free slot
// and at least one free SM (the run's drained tail always qualifies).
func findHeadroom(t *testing.T, rec []IntervalRecord) int {
	t.Helper()
	for i := range rec {
		for _, g := range rec[i].GPUs {
			if g.FreeSlots > 0 && g.FreeSMs >= 1 {
				return i
			}
		}
	}
	t.Fatal("no interval with admission headroom")
	return -1
}

func TestMutationStarvation(t *testing.T) {
	rec, capacity, gpuSMs := cleanHistory(t)
	// Starvation mutation: pretend a 1-SM job sat queued in an interval
	// where a GPU had a free slot and free SMs — the scheduler idled
	// capacity a runnable job could have used.
	iv := findHeadroom(t, rec)
	bad := mutate(rec, func(rec []IntervalRecord) {
		rec[iv].Tenants[0].QueuedMinSMs = append(rec[iv].Tenants[0].QueuedMinSMs, 1)
		rec[iv].Tenants[0].Queued++
	})
	err := CheckConservation(bad)
	if err == nil {
		t.Fatal("CheckConservation accepted a starved queued job beside free capacity")
	}
	if !strings.Contains(err.Error(), "work conservation") {
		t.Fatalf("wrong failure: %v", err)
	}
	if err := CheckAll(bad, capacity, gpuSMs); err == nil {
		t.Fatal("CheckAll missed the conservation violation")
	}
}

func TestMutationQuotaLeak(t *testing.T) {
	rec, capacity, gpuSMs := cleanHistory(t)
	// Quota-leak mutation: rewrite one placement as an over-quota grab while
	// another tenant was under quota, unplaced, and had a smaller job
	// queued — exactly the starvation-by-borrower quota safety forbids.
	var iv, pi int = -1, -1
	for i := range rec {
		if len(rec[i].Placements) > 0 {
			iv, pi = i, 0
			break
		}
	}
	if iv < 0 {
		t.Fatal("no placement to mutate")
	}
	victimIdx := -1
	for j := range rec[iv].Tenants {
		if rec[iv].Tenants[j].Name != rec[iv].Placements[pi].Tenant {
			victimIdx = j
			break
		}
	}
	if victimIdx < 0 {
		t.Fatal("no victim tenant available")
	}
	bad := mutate(rec, func(rec []IntervalRecord) {
		p := &rec[iv].Placements[pi]
		p.OverQuota = true
		p.ShareAtPlace = 1.5
		v := &rec[iv].Tenants[victimIdx]
		v.StartShare = 0.25
		v.PlacedJobs = 0
		v.Departed = false
		v.QueuedMinSMs = []int{1}
		v.Queued = 1
	})
	err := CheckQuotaSafety(bad)
	if err == nil {
		t.Fatal("CheckQuotaSafety accepted an over-quota placement past a starved in-quota tenant")
	}
	if !strings.Contains(err.Error(), "quota safety") {
		t.Fatalf("wrong failure: %v", err)
	}
	if err := CheckAll(bad, capacity, gpuSMs); err == nil {
		t.Fatal("CheckAll missed the quota violation")
	}
}

func TestMutationLostAllocation(t *testing.T) {
	rec, capacity, gpuSMs := cleanHistory(t)
	// Lost-allocation mutation: shave one SM off a tenant's recorded
	// allocation without crediting idle — the books no longer balance.
	var iv int = -1
	for i := range rec {
		for j := range rec[i].Tenants {
			if rec[i].Tenants[j].AllocatedSMs > 0 {
				iv = i
			}
		}
	}
	if iv < 0 {
		t.Fatal("no allocated interval to mutate")
	}
	bad := mutate(rec, func(rec []IntervalRecord) {
		for j := range rec[iv].Tenants {
			if rec[iv].Tenants[j].AllocatedSMs > 0 {
				rec[iv].Tenants[j].AllocatedSMs--
				return
			}
		}
	})
	err := CheckAccounting(bad, capacity, gpuSMs)
	if err == nil {
		t.Fatal("CheckAccounting accepted a lost SM")
	}
	if !strings.Contains(err.Error(), "lost or double-counted") {
		t.Fatalf("wrong failure: %v", err)
	}
	if err := CheckAll(bad, capacity, gpuSMs); err == nil {
		t.Fatal("CheckAll missed the accounting violation")
	}

	// And the per-GPU side: a busy GPU reporting a short partition.
	bad2 := mutate(rec, func(rec []IntervalRecord) {
		for i := range rec {
			for k := range rec[i].GPUs {
				if rec[i].GPUs[k].Residents > 0 {
					rec[i].GPUs[k].ResidentSMs--
					return
				}
			}
		}
	})
	if err := CheckAccounting(bad2, capacity, gpuSMs); err == nil {
		t.Fatal("CheckAccounting accepted a busy GPU with unpartitioned SMs")
	}
}
