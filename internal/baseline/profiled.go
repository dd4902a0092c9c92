package baseline

import "dasesim/internal/sim"

// Profiled estimates slowdowns from *offline* isolated-profiling data, the
// approach of the QoS/fair-share works the paper contrasts DASE against
// (Aguilera et al., ASP-DAC'14 / ICCD'14): each application's alone DRAM
// bandwidth is measured in a profiling pass, and at run time the slowdown is
// approximated as the ratio of profiled alone bandwidth to observed shared
// bandwidth (the Fig. 2(b) observation).
//
// Its practical flaw — the reason the paper builds a run-time model instead
// — is that data-dependent applications cannot be profiled in advance, and
// the profile goes stale when inputs change. It is provided for comparison.
type Profiled struct {
	// AloneBW[i] is app i's profiled alone bandwidth utilisation (fraction
	// of peak, as in Table III).
	AloneBW []float64
}

// NewProfiled builds the estimator from profiled alone-bandwidth fractions.
func NewProfiled(aloneBW []float64) *Profiled {
	return &Profiled{AloneBW: append([]float64(nil), aloneBW...)}
}

// Estimate implements core.Estimator.
func (p *Profiled) Estimate(snap *sim.IntervalSnapshot) []float64 {
	out := make([]float64, len(snap.Apps))
	for i := range snap.Apps {
		out[i] = 1
		if i >= len(p.AloneBW) || snap.BusCycles == 0 {
			continue
		}
		sharedBW := float64(snap.Apps[i].DataCycles) / float64(snap.BusCycles)
		if sharedBW <= 0 || p.AloneBW[i] <= 0 {
			continue
		}
		s := p.AloneBW[i] / sharedBW
		if s < 1 {
			s = 1
		}
		out[i] = s
	}
	return out
}
