package sim

import (
	"context"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
)

// AppResult summarises one application over a whole run.
type AppResult struct {
	Abbr         string
	Instructions uint64
	IPC          float64 // instructions per GPU cycle, all owned SMs combined
	Alpha        float64
	Served       uint64  // DRAM requests served
	DataCycles   uint64  // DRAM data-bus cycles
	BWUtil       float64 // fraction of total DRAM bus cycles moving this app's data
	RowHitRate   float64
	MemInsts     uint64
	L1HitRate    float64
	BlocksDone   uint64

	// MeanLatency is the average load round-trip latency in cycles;
	// P95Latency is an upper bound on the 95th percentile (log buckets).
	MeanLatency float64
	P95Latency  uint64

	// Occupancy is the fraction of the app's SM-cycles with at least one
	// resident thread block (dispatch coverage).
	Occupancy float64
}

// Result summarises a finished simulation.
type Result struct {
	Cycles    uint64
	Apps      []AppResult
	Snapshots []IntervalSnapshot

	// Cumulative DRAM bus decomposition (Fig. 2(b)); DataCycles are broken
	// out per app in Apps.
	BusCycles uint64
	BusWasted uint64
	BusIdle   uint64
}

// BWUtilTotal returns the total data-bus utilisation of the run.
func (r *Result) BWUtilTotal() float64 {
	if r.BusCycles == 0 {
		return 0
	}
	var data uint64
	for i := range r.Apps {
		data += r.Apps[i].DataCycles
	}
	return float64(data) / float64(r.BusCycles)
}

// FinishRun takes a final partial-interval snapshot if the run did not end
// exactly on an interval boundary, then summarises.
func (g *GPU) FinishRun() *Result {
	if g.cycle > g.intervalStart {
		snap := g.takeSnapshot()
		g.addSnapshot(snap)
		g.resetInterval()
	}
	res := &Result{Cycles: g.cycle, Snapshots: g.snapshots}
	res.Apps = make([]AppResult, len(g.apps))

	// Aggregate memory counters across snapshots (controller counters are
	// reset each interval, so the snapshots are the durable record), seeded
	// with the totals of any snapshots evicted under a retention cap.
	res.BusCycles = g.evicted.busCycles
	res.BusWasted = g.evicted.busWasted
	res.BusIdle = g.evicted.busIdle
	served := make([]uint64, len(g.apps))
	data := make([]uint64, len(g.apps))
	rowHits := make([]uint64, len(g.apps))
	rowMisses := make([]uint64, len(g.apps))
	copy(served, g.evicted.served)
	copy(data, g.evicted.data)
	copy(rowHits, g.evicted.rowHits)
	copy(rowMisses, g.evicted.rowMisses)
	for si := range g.snapshots {
		s := &g.snapshots[si]
		res.BusCycles += s.BusCycles
		res.BusWasted += s.BusWasted
		res.BusIdle += s.BusIdle
		for i := range s.Apps {
			served[i] += s.Apps[i].Served
			data[i] += s.Apps[i].DataCycles
			rowHits[i] += s.Apps[i].RowHits
			rowMisses[i] += s.Apps[i].RowMisses
		}
	}
	for i, app := range g.apps {
		ar := AppResult{
			Abbr:         app.Profile.Abbr,
			Instructions: app.Instructions,
			IPC:          app.IPC(g.cycle),
			Alpha:        app.Alpha(),
			Served:       served[i],
			DataCycles:   data[i],
			MemInsts:     app.MemInsts,
			BlocksDone:   app.BlocksDone,
		}
		if res.BusCycles > 0 {
			ar.BWUtil = float64(data[i]) / float64(res.BusCycles)
		}
		if rowHits[i]+rowMisses[i] > 0 {
			ar.RowHitRate = float64(rowHits[i]) / float64(rowHits[i]+rowMisses[i])
		}
		if app.L1Hits+app.L1Misses > 0 {
			ar.L1HitRate = float64(app.L1Hits) / float64(app.L1Hits+app.L1Misses)
		}
		if app.MemLat.Count > 0 {
			ar.MeanLatency = app.MemLat.Mean()
			ar.P95Latency = app.LatHist.Quantile(0.95)
		}
		if app.SMCycles > 0 {
			ar.Occupancy = float64(app.ActiveCycles) / float64(app.SMCycles)
		}
		res.Apps[i] = ar
	}
	return res
}

// RunAlone simulates one kernel alone on all SMs for the given cycles and
// returns the result. This provides the IPC^alone baseline of Eq. 1: it is
// the one-app shared run on every SM.
func RunAlone(cfg config.Config, p kernels.Profile, cycles uint64, seed uint64, opts ...Option) (*Result, error) {
	return RunShared(cfg, []kernels.Profile{p}, []int{cfg.NumSMs}, cycles, seed, opts...)
}

// RunShared simulates the given kernels concurrently with alloc[i] SMs for
// app i, for the given cycles, and returns the result. sched.Run is the
// same run with cancellation and an optional SM policy.
func RunShared(cfg config.Config, ps []kernels.Profile, alloc []int, cycles uint64, seed uint64, opts ...Option) (*Result, error) {
	g, err := New(cfg, ps, alloc, seed, opts...)
	if err != nil {
		return nil, err
	}
	if err := g.RunContext(context.Background(), cycles); err != nil {
		return nil, err
	}
	return g.FinishRun(), nil
}

// EvenAllocation splits n SMs evenly among k apps (first apps get the
// remainder), the paper's default SM-partition scheme.
func EvenAllocation(n, k int) []int {
	out := make([]int, k)
	base := n / k
	rem := n % k
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}
