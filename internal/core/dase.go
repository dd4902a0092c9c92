// Package core implements DASE, the Dynamical Application Slowdown
// Estimation model — the paper's primary contribution (§4). Per estimation
// interval, DASE reads the memory-partition hardware counters and the SM
// stall fractions from an interval snapshot and estimates, for every
// concurrent application, its slowdown relative to running alone on all
// SMs:
//
//   - non-memory-bandwidth-bound (NMBB) apps: interference cycles are
//     decomposed into DRAM bank interference (Eq. 9), row-buffer
//     interference (Eq. 10) and shared-cache interference (Eq. 11),
//     normalised by bank-level parallelism (Eq. 14), discounted by the
//     thread-level-parallelism stall fraction α (Eq. 15), and scaled from
//     the assigned SMs to all SMs with TLP and bandwidth caps (Eqs. 23-25);
//   - memory-bandwidth-bound (MBB) apps: the slowdown is the ratio of the
//     total served requests of all apps to the app's own contention-adjusted
//     served requests (Eqs. 16-18), because a bandwidth-bound app running
//     alone would absorb the whole DRAM throughput;
//   - classification between the two uses Eqs. 19-22.
package core

import (
	"math"

	"dasesim/internal/sim"
)

// Estimator is the common interface of all slowdown estimators (DASE and
// the MISE/ASM baselines): per interval snapshot, one estimated slowdown per
// application, relative to running alone on all SMs.
type Estimator interface {
	Estimate(snap *sim.IntervalSnapshot) []float64
}

// Options tune DASE. The zero value is this repository's refined DASE: it
// turns on two refinements of the paper's equations, the refined Eq. 9 bank
// counter and a dynamic Requestmax. Options{LiteralBankInterference: true,
// StaticRequestMax: true} is the paper's equations as published.
type Options struct {
	// DisableBLPNormalization skips the Eq. 14 division (ablation).
	DisableBLPNormalization bool
	// DisableAlphaDiscount skips the Eq. 15 TLP discount (ablation).
	DisableAlphaDiscount bool
	// DisableScalingCaps skips the Eq. 24/25 caps on all-SM scaling
	// (ablation).
	DisableScalingCaps bool
	// ForceClass forces every app down one path (ablation): 0 = classify
	// per Eqs. 19-22 (default), 1 = all NMBB, 2 = all MBB.
	ForceClass int
	// LiteralBankInterference uses the paper's literal Eq. 9 approximation
	// (BLP - BLPAccess) for the bank-interference term. The default uses
	// the refined counter — banks occupied by co-runners while this app
	// waits — which excludes self-queueing and is exactly zero when the
	// app runs alone (ablation: compare both).
	LiteralBankInterference bool
	// StaticRequestMax uses the paper's static Eq. 20 Requestmax (peak ×
	// 0.6) in the Eq. 25 bandwidth cap and the MBB slowdown. The default
	// computes a per-application dynamic Requestmax from the app's
	// observed row-miss rate and the activation-rate ceiling — the
	// "dynamically calculating Requestmax based on kernel characteristics"
	// the paper names as an extension (§4.2.3).
	StaticRequestMax bool
}

const (
	// alphaClampThreshold: when α exceeds it, α is treated as 1 (the paper
	// observes this improves accuracy for large α).
	alphaClampThreshold = 0.8
	// rowMissPenalty is tRP+tRCD in core cycles (Eq. 10) under the Table II
	// timings. It is not derived from the memory config, so a config with
	// other DRAM timings still charges 36 cycles per row miss.
	rowMissPenalty = 36
)

// DASE is the paper's estimator.
type DASE struct {
	opt Options
}

// ForceNMBB / ForceMBB values for Options.ForceClass.
const (
	ClassifyAuto = 0
	ForceNMBB    = 1
	ForceMBB     = 2
)

// New builds a DASE estimator with the given options.
func New(opt Options) *DASE { return &DASE{opt: opt} }

// AppEstimate is the full per-app breakdown, for diagnostics and tests.
type AppEstimate struct {
	Slowdown         float64 // final estimate (all SMs)
	SlowdownAssigned float64 // before all-SM scaling
	MBB              bool
	TimeBank         float64 // Eq. 9
	TimeRow          float64 // Eq. 10
	TimeLLC          float64 // Eq. 11
	TimeInterference float64 // Eq. 14
	Alpha            float64
	RequestShared    float64 // Eq. 17
}

// Estimate implements Estimator.
func (d *DASE) Estimate(snap *sim.IntervalSnapshot) []float64 {
	det := d.EstimateDetailed(snap)
	out := make([]float64, len(det))
	for i := range det {
		out[i] = det[i].Slowdown
	}
	return out
}

// EstimateDetailed returns the full interference breakdown per app.
func (d *DASE) EstimateDetailed(snap *sim.IntervalSnapshot) []AppEstimate {
	return d.EstimateDetailedInto(snap, make([]AppEstimate, 0, len(snap.Apps)))
}

// EstimateDetailedInto is EstimateDetailed writing into caller-provided
// scratch: out is resized to one entry per app (growing only when its
// capacity is insufficient) and returned. With adequate capacity it
// allocates nothing, so online serving paths can reuse one slice across
// requests. The numbers are identical to EstimateDetailed's — it is the
// same computation.
func (d *DASE) EstimateDetailedInto(snap *sim.IntervalSnapshot, out []AppEstimate) []AppEstimate {
	if cap(out) < len(snap.Apps) {
		out = make([]AppEstimate, len(snap.Apps))
	} else {
		out = out[:len(snap.Apps)]
	}
	reqMax := snap.RequestMax()
	totalServed := float64(snap.TotalServed())
	nApps := float64(len(snap.Apps))

	for i := range snap.Apps {
		a := &snap.Apps[i]
		e := &out[i]
		*e = AppEstimate{} // clear any reused entry; the MBB path skips the time fields
		e.Alpha = a.Alpha

		// Eq. 17: requests net of contention-induced extra misses.
		reqShared := float64(a.Served) - a.ELLCMiss
		if reqShared < 1 {
			reqShared = 1
		}
		e.RequestShared = reqShared

		e.MBB = d.classify(a, reqShared, totalServed, reqMax, nApps)

		// Per-application achievable request ceiling over the interval:
		// the paper's static Requestmax, or the dynamic variant derived
		// from the app's own row-miss rate against the activation bound.
		appReqMax := reqMax
		if !d.opt.StaticRequestMax {
			appReqMax = dynamicRequestMax(snap, a)
		}

		if e.MBB {
			// Eqs. 16+18: alone, a bandwidth-bound app would absorb the
			// requests currently served for everyone. With the dynamic
			// Requestmax extension, that is bounded by what the app's own
			// access pattern can draw from the DRAM (the paper's Eq. 18
			// is uncapped).
			alone := totalServed
			if !d.opt.StaticRequestMax && alone > appReqMax {
				alone = appReqMax
			}
			e.SlowdownAssigned = alone / reqShared
			// §4.3: MBB kernels gain nothing from more SMs, so the
			// assigned-SM estimate already is the all-SM estimate.
			e.Slowdown = clampSlowdown(e.SlowdownAssigned)
			continue
		}

		// NMBB path: Eqs. 7-15.
		tShared := float64(snap.IntervalCycles)
		blp := a.BLP
		blpAccess := a.BLPAccess
		if blp < 1 {
			blp = 1
		}
		// Eq. 9: bank-cycles stolen by co-runners, normalised by BLP in
		// Eq. 14 below.
		if d.opt.LiteralBankInterference {
			e.TimeBank = tShared * math.Max(0, blp-blpAccess)
		} else {
			e.TimeBank = tShared * a.BLPBlocked
		}
		e.TimeRow = float64(a.ERBMiss) * rowMissPenalty
		if a.Served > 0 {
			avg := float64(a.TimeInBanks) / float64(a.Served)
			e.TimeLLC = a.ELLCMiss * avg
		}
		e.TimeInterference = e.TimeBank + e.TimeRow + e.TimeLLC
		if !d.opt.DisableBLPNormalization {
			e.TimeInterference /= blp
		}
		tAlone := tShared - e.TimeInterference
		if tAlone < tShared*0.05 {
			tAlone = tShared * 0.05
		}
		ratio := tShared / tAlone

		alpha := a.Alpha
		if alpha > alphaClampThreshold {
			alpha = 1
		}
		if d.opt.DisableAlphaDiscount {
			alpha = 1
		}
		e.SlowdownAssigned = 1 - alpha + alpha*ratio

		// Eq. 23: scale from assigned SMs to all SMs.
		sms := a.SMs
		if sms <= 0 {
			sms = 1
		}
		all := e.SlowdownAssigned * float64(snap.NumSMs) / float64(sms)
		if !d.opt.DisableScalingCaps {
			// Eq. 24: thread-level-parallelism cap.
			if a.TBShared > 0 && a.TBSum > 0 {
				tlpCap := e.SlowdownAssigned * float64(a.TBSum) / float64(a.TBShared)
				if tlpCap < all {
					all = tlpCap
				}
			}
			// Eq. 25: memory-bandwidth cap.
			bwCap := appReqMax / reqShared
			if bwCap < all {
				all = bwCap
			}
			// Scaling caps must not push the estimate below the
			// assigned-SM slowdown.
			if all < e.SlowdownAssigned {
				all = e.SlowdownAssigned
			}
		}
		e.Slowdown = clampSlowdown(all)
	}
	return out
}

// classify applies Eqs. 19-22: all three must hold for the MBB class.
func (d *DASE) classify(a *sim.AppInterval, reqShared, totalServed, reqMax, nApps float64) bool {
	switch d.opt.ForceClass {
	case ForceNMBB:
		return false
	case ForceMBB:
		return true
	}
	if totalServed < reqMax { // Eq. 19
		return false
	}
	if reqShared/reqMax < 1/nApps { // Eq. 21
		return false
	}
	alpha := a.Alpha
	if alpha >= 1 {
		return true
	}
	return reqShared/(1-alpha) >= reqMax // Eq. 22
}

// dynamicRequestMax estimates how many requests this application could draw
// from the DRAM over the interval if it ran alone, from its observed
// row-miss rate m: each miss needs an activation, so the line rate is
// bounded by min(bus peak, ACT peak / m).
func dynamicRequestMax(snap *sim.IntervalSnapshot, a *sim.AppInterval) float64 {
	rate := snap.PeakReqPerCyc
	total := a.RowHits + a.RowMisses
	if total > 0 && snap.PeakActPerCyc > 0 {
		m := float64(a.RowMisses) / float64(total)
		if m > 0 {
			if actBound := snap.PeakActPerCyc / m; actBound < rate {
				rate = actBound
			}
		}
	}
	return rate * float64(snap.IntervalCycles) * 0.95
}

func clampSlowdown(s float64) float64 {
	if s < 1 {
		return 1
	}
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 1
	}
	return s
}

// AverageEstimates averages per-interval estimates over a run (skipping the
// given number of warm-up intervals) to produce the per-app run-level
// estimate compared against the actual slowdown in Figs. 5-8.
func AverageEstimates(est Estimator, snaps []sim.IntervalSnapshot, warmup int) []float64 {
	if len(snaps) == 0 {
		return nil
	}
	n := len(snaps[0].Apps)
	sums := make([]float64, n)
	count := 0
	for i := range snaps {
		if i < warmup {
			continue
		}
		vals := est.Estimate(&snaps[i])
		for j, v := range vals {
			sums[j] += v
		}
		count++
	}
	if count == 0 {
		return AverageEstimates(est, snaps, 0)
	}
	for j := range sums {
		sums[j] /= float64(count)
	}
	return sums
}
