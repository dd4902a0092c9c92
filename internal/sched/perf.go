package sched

import "dasesim/internal/sim"

// DASEPerf is the throughput-oriented counterpart of DASE-Fair (in the
// spirit of the weighted-speedup schedulers of Jog et al. that the paper's
// related-work section discusses): each interval it searches the SM
// partitions for the one maximising estimated weighted speedup
// (Σ 1/slowdown) instead of minimising unfairness. Fairness-agnostic: it
// will happily starve an app whose marginal SMs yield less throughput.
type DASEPerf struct{ partitionPolicy }

// NewDASEPerf builds the policy with defaults mirroring DASE-Fair's.
func NewDASEPerf() *DASEPerf { return &DASEPerf{newPartitionPolicy()} }

// Name implements Policy.
func (p *DASEPerf) Name() string { return "DASE-Perf" }

// OnInterval implements Policy.
func (p *DASEPerf) OnInterval(g *sim.GPU, snap *sim.IntervalSnapshot) {
	p.onInterval(g, snap, p.Name(), false)
}
