package fleet

import "fmt"

// The fairness invariants are pure functions over the allocation-history
// record, not assertions buried in the scheduler: the property suite runs
// them over randomized scenarios, and the mutation tests prove each one
// sharp by planting the corresponding violation (an idle GPU beside a
// placeable job, an over-quota placement past a starved in-quota tenant, a
// lost SM in the bookkeeping) and observing the checker fail.

// CheckConservation verifies work conservation: at no interval may a queued
// job fit a GPU's post-placement admission headroom. If a job with demand m
// is still queued while some GPU has a free concurrency slot and m free
// SMs, the scheduler idled capacity a runnable job could have used.
func CheckConservation(rec []IntervalRecord) error {
	for i := range rec {
		r := &rec[i]
		for j := range r.Tenants {
			t := &r.Tenants[j]
			for _, m := range t.QueuedMinSMs {
				for k := range r.GPUs {
					g := &r.GPUs[k]
					if g.FreeSlots > 0 && int(g.FreeSMs) >= m {
						return fmt.Errorf("interval %d: tenant %s has a queued %d-SM job while gpu %d has %d free SMs and %d free slots (work conservation violated)",
							r.Interval, t.Name, m, g.GPU, g.FreeSMs, g.FreeSlots)
					}
				}
			}
		}
	}
	return nil
}

// CheckQuotaSafety verifies that in-quota tenants are never starved by
// over-quota borrowers. The reasoning: when an over-quota tenant placed a
// job of demand s on GPU g, g had a free slot and at least s free SMs at
// that moment — so any queued job of demand m ≤ s was placeable, and every
// tenant under its deserved share had strict priority. Therefore if a
// tenant (a) entered the placement phase under quota, (b) received no
// placement of its own (so its standing never moved during the phase), and
// (c) still has a queued job of demand m ≤ s at interval end (queues only
// shrink during placement, so the job was waiting the whole time), then the
// over-quota placement starved it.
func CheckQuotaSafety(rec []IntervalRecord) error {
	for i := range rec {
		r := &rec[i]
		for j := range r.Tenants {
			t := &r.Tenants[j]
			if t.StartShare >= 1 || t.PlacedJobs > 0 || t.Departed || len(t.QueuedMinSMs) == 0 {
				continue
			}
			minQueued := t.QueuedMinSMs[0]
			for _, m := range t.QueuedMinSMs {
				if m < minQueued {
					minQueued = m
				}
			}
			for _, p := range r.Placements {
				if p.OverQuota && p.Tenant != t.Name && int(p.MinSMs) >= minQueued {
					return fmt.Errorf("interval %d: over-quota tenant %s placed a %d-SM job while in-quota tenant %s had a %d-SM job queued (quota safety violated)",
						r.Interval, p.Tenant, p.MinSMs, t.Name, minQueued)
				}
			}
		}
	}
	return nil
}

// CheckAccounting verifies the allocation-history bookkeeping: each
// interval, the per-tenant allocations plus the recorded idle capacity must
// sum to exactly the fleet capacity, the per-GPU resident partitions must
// tell the same story, and a busy GPU must have all of its SMs partitioned
// (the fleet never leaves an SM of a busy GPU unassigned).
func CheckAccounting(rec []IntervalRecord, capacity, gpuSMs int) error {
	for i := range rec {
		r := &rec[i]
		tenantSum := 0
		for j := range r.Tenants {
			tenantSum += int(r.Tenants[j].AllocatedSMs)
		}
		if tenantSum+int(r.IdleSMs) != capacity {
			return fmt.Errorf("interval %d: tenant allocations %d + idle %d != capacity %d (allocation lost or double-counted)",
				r.Interval, tenantSum, r.IdleSMs, capacity)
		}
		gpuSum := 0
		for k := range r.GPUs {
			g := &r.GPUs[k]
			gpuSum += int(g.ResidentSMs)
			if g.Residents > 0 && int(g.ResidentSMs) != gpuSMs {
				return fmt.Errorf("interval %d: gpu %d has %d residents but partitions only %d of %d SMs",
					r.Interval, g.GPU, g.Residents, g.ResidentSMs, gpuSMs)
			}
			if g.Residents == 0 && g.ResidentSMs != 0 {
				return fmt.Errorf("interval %d: empty gpu %d reports %d resident SMs", r.Interval, g.GPU, g.ResidentSMs)
			}
		}
		if gpuSum != tenantSum {
			return fmt.Errorf("interval %d: per-GPU partitions sum to %d but per-tenant allocations to %d",
				r.Interval, gpuSum, tenantSum)
		}
	}
	return nil
}

// CheckAll runs every invariant over the record.
func CheckAll(rec []IntervalRecord, capacity, gpuSMs int) error {
	if err := CheckConservation(rec); err != nil {
		return err
	}
	if err := CheckQuotaSafety(rec); err != nil {
		return err
	}
	return CheckAccounting(rec, capacity, gpuSMs)
}
