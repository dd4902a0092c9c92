// Package baseline implements the two CPU slowdown-estimation models the
// paper compares against, ported onto the GPU substrate exactly as the paper
// describes their (mis)fit:
//
//   - MISE (Subramanian et al., HPCA 2013): periodically gives each
//     application's requests the highest memory-controller priority, takes
//     the service rate during the app's own priority epoch as its
//     alone-request-service-rate (ARSR), and estimates
//     slowdown = (1-α) + α · ARSR/SRSR.
//   - ASM (Subramanian et al., MICRO 2015): MISE plus shared-cache
//     interference handling — the request counts on both sides are adjusted
//     by the ATD-detected contention misses.
//
// Both models estimate the slowdown on the *assigned* SMs only: a GPGPU
// application running alone would use all SMs, which neither model accounts
// for, and the priority epochs do not remove most GPU interference — the two
// deficiencies the paper identifies (§3.2, §6).
package baseline

import (
	"dasesim/internal/sim"
)

// MISE estimates slowdowns via highest-priority epoch sampling. The GPU must
// be built with sim.WithPriorityEpochs() so the snapshots carry PrioServed
// and PrioCycles.
type MISE struct {
	// AlphaIntensive is the stall-fraction threshold above which the app
	// is treated as memory-intensive (pure rate ratio, no α discount).
	AlphaIntensive float64
}

// NewMISE returns a MISE estimator with the standard configuration.
func NewMISE() *MISE { return &MISE{AlphaIntensive: 0.7} }

// Estimate implements core.Estimator.
func (m *MISE) Estimate(snap *sim.IntervalSnapshot) []float64 {
	out := make([]float64, len(snap.Apps))
	tShared := float64(snap.IntervalCycles)
	for i := range snap.Apps {
		a := &snap.Apps[i]
		var srsr, arsr float64
		if tShared > 0 {
			srsr = float64(a.Served) / tShared
		}
		if a.PrioCycles > 0 {
			arsr = float64(a.PrioServed) / float64(a.PrioCycles)
		}
		out[i] = rateRatioSlowdown(a, srsr, arsr, m.AlphaIntensive)
	}
	return out
}

// ASM adds shared-cache interference correction on top of MISE's epoch
// sampling: contention misses detected by the auxiliary tag directory are
// removed from the shared service rate (they would not exist alone) and the
// cache-hit portion is credited to the alone rate.
type ASM struct {
	AlphaIntensive float64
}

// NewASM returns an ASM estimator with the standard configuration.
func NewASM() *ASM { return &ASM{AlphaIntensive: 0.7} }

// Estimate implements core.Estimator.
func (a *ASM) Estimate(snap *sim.IntervalSnapshot) []float64 {
	out := make([]float64, len(snap.Apps))
	tShared := float64(snap.IntervalCycles)
	for i := range snap.Apps {
		ai := &snap.Apps[i]
		// Contention misses detected by the ATD are useless work: alone
		// they would not exist, so they are removed from both the shared
		// service count and the epoch-extrapolated alone count. Because
		// the subtraction is absolute (not proportional), it raises the
		// estimated slowdown of cache victims, unlike MISE.
		shared := float64(ai.Served) - ai.ELLCMiss
		if shared < 1 {
			shared = 1
		}
		alone := shared
		if ai.PrioCycles > 0 && tShared > 0 {
			alone = float64(ai.PrioServed)*tShared/float64(ai.PrioCycles) - ai.ELLCMiss
			if alone < 1 {
				alone = 1
			}
		}
		var srsr, arsr float64
		if tShared > 0 {
			srsr = shared / tShared
			arsr = alone / tShared
		}
		out[i] = rateRatioSlowdown(ai, srsr, arsr, a.AlphaIntensive)
	}
	return out
}

// rateRatioSlowdown computes (1-α) + α·ARSR/SRSR with the MISE
// memory-intensity special case.
func rateRatioSlowdown(a *sim.AppInterval, srsr, arsr, alphaIntensive float64) float64 {
	if srsr <= 0 || arsr <= 0 {
		return 1
	}
	ratio := arsr / srsr
	if ratio < 1 {
		ratio = 1
	}
	alpha := a.Alpha
	if alpha >= alphaIntensive {
		// Memory-intensive: performance tracks the request service rate
		// directly.
		return ratio
	}
	return 1 - alpha + alpha*ratio
}
