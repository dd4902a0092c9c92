package sched

import (
	"slices"

	"dasesim/internal/core"
	"dasesim/internal/sim"
)

// DASEQoS is the slowdown-aware QoS policy the paper names as future work
// (§8): one application is designated latency-critical with a target
// maximum slowdown; every interval the policy estimates slowdowns with
// DASE, uses the Eq. 29/30 reciprocal interpolation to find the smallest SM
// count that keeps the critical app within its target, and hands every
// remaining SM to the other applications (balanced by their estimated
// reciprocals) to maximise throughput under the guarantee.
type DASEQoS struct {
	Est *core.DASE
	// CriticalApp is the index of the QoS-protected application.
	CriticalApp int
	// TargetSlowdown is the maximum tolerated slowdown for the critical
	// app (relative to running alone on the whole GPU).
	TargetSlowdown float64
	// WarmupIntervals skipped before the first reallocation.
	WarmupIntervals int
	// MinSMs per application.
	MinSMs int

	intervals int
	// Reallocations counts the policy's SM moves.
	Reallocations int
	// Violations counts intervals where even all spare SMs could not meet
	// the target.
	Violations int
}

// NewDASEQoS builds the policy protecting app `critical` with the given
// slowdown target.
func NewDASEQoS(critical int, target float64) *DASEQoS {
	return &DASEQoS{
		Est:             core.New(core.Options{}),
		CriticalApp:     critical,
		TargetSlowdown:  target,
		WarmupIntervals: 1,
		MinSMs:          1,
	}
}

// Name implements Policy.
func (p *DASEQoS) Name() string { return "DASE-QoS" }

// OnInterval implements Policy.
func (p *DASEQoS) OnInterval(g *sim.GPU, snap *sim.IntervalSnapshot) {
	p.intervals++
	if p.intervals <= p.WarmupIntervals {
		return
	}
	if p.CriticalApp < 0 || p.CriticalApp >= len(snap.Apps) {
		return
	}
	slow := p.Est.Estimate(snap)
	cur := currentSMs(nil, snap)
	total := snap.NumSMs
	others := len(snap.Apps) - 1

	// Smallest SM count whose interpolated reciprocal meets the target.
	targetRecip := 1 / p.TargetSlowdown
	critRecip := 1 / clampLow(slow[p.CriticalApp])
	need := total - others*p.MinSMs // worst case: everything we can give
	met := false
	for x := p.MinSMs; x <= total-others*p.MinSMs; x++ {
		if ReciprocalAt(critRecip, cur[p.CriticalApp], x, total) >= targetRecip {
			need = x
			met = true
			break
		}
	}
	if !met {
		p.Violations++
	}

	// Distribute the remainder over the other apps proportionally to how
	// slowed they are (more SMs to the more-slowed, to balance them).
	alloc := make([]int, len(snap.Apps))
	alloc[p.CriticalApp] = need
	remain := total - need
	if others > 0 {
		weights := make([]float64, 0, others)
		var wsum float64
		idx := make([]int, 0, others)
		for i := range snap.Apps {
			if i == p.CriticalApp {
				continue
			}
			w := clampLow(slow[i])
			weights = append(weights, w)
			wsum += w
			idx = append(idx, i)
		}
		given := 0
		for k, i := range idx {
			share := int(float64(remain) * weights[k] / wsum)
			if share < p.MinSMs {
				share = p.MinSMs
			}
			alloc[i] = share
			given += share
		}
		// Fix rounding drift onto the first other app.
		for given > remain {
			for _, i := range idx {
				if alloc[i] > p.MinSMs && given > remain {
					alloc[i]--
					given--
				}
			}
			if given > remain && allAtMin(alloc, idx, p.MinSMs) {
				break
			}
		}
		for given < remain {
			alloc[idx[0]]++
			given++
		}
	}

	if slices.Equal(alloc, cur) {
		return
	}
	if err := g.SetAllocation(alloc); err == nil {
		p.Reallocations++
	}
}

func clampLow(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

func allAtMin(alloc []int, idx []int, min int) bool {
	for _, i := range idx {
		if alloc[i] > min {
			return false
		}
	}
	return true
}
