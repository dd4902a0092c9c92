package experiments

import (
	"fmt"

	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/simcache"
)

// TableIIIRow is one application of Table III with its measured alone
// bandwidth utilisation next to the paper's.
type TableIIIRow struct {
	Abbr    string
	Name    string
	PaperBW float64
	MeasBW  float64
	IPC     float64
	Alpha   float64
	RowHit  float64
	Served  uint64
}

// TableIII reads every kernel's alone run on the full GPU from store and
// reports attained DRAM bandwidth utilisation (paper Table III).
func TableIII(p Params, store *simcache.Memory) ([]TableIIIRow, *Table, error) {
	t := &Table{
		Title:   "Table III — alone DRAM bandwidth utilisation (paper vs measured)",
		Columns: []string{"app", "name", "paper", "measured", "IPC", "alpha", "rowhit"},
	}
	rows := make([]TableIIIRow, 0, 15)
	for _, prof := range kernels.All() {
		res, err := p.alone(store, prof)
		if err != nil {
			return nil, nil, err
		}
		a := res.Apps[0]
		r := TableIIIRow{
			Abbr: prof.Abbr, Name: prof.Name, PaperBW: prof.PaperBW,
			MeasBW: a.BWUtil, IPC: a.IPC, Alpha: a.Alpha,
			RowHit: a.RowHitRate, Served: a.Served,
		}
		rows = append(rows, r)
		t.Rows = append(t.Rows, []string{
			r.Abbr, r.Name, pct(r.PaperBW), pct(r.MeasBW), f2(r.IPC), f2(r.Alpha), f2(r.RowHit),
		})
	}
	return rows, t, nil
}

// TableII renders the active GPU configuration (paper Table II).
func TableII(p Params) *Table {
	c := p.Cfg
	t := &Table{Title: "Table II — baseline GPU configuration", Columns: []string{"component", "value"}}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("SMs", fmt.Sprintf("%d SMs, max %d warps (%d threads), issue width %d",
		c.NumSMs, c.SM.MaxWarps, c.SM.MaxWarps*c.SM.WarpSize, c.SM.IssueWidth))
	add("Shared memory", fmt.Sprintf("%d KB per SM, %d registers", c.SM.SharedMemBytes/1024, c.SM.Registers))
	add("L1 cache", fmt.Sprintf("%d KB %d-way, %d B lines, %d MSHRs",
		c.L1.SizeBytes/1024, c.L1.Assoc, c.L1.LineBytes, c.L1.MSHRs))
	add("L2 cache", fmt.Sprintf("%d x %d KB slices (%d KB total), %d-way",
		c.NumMCs, c.L2.SizeBytes/1024, c.NumMCs*c.L2.SizeBytes/1024, c.L2.Assoc))
	add("Interconnect", fmt.Sprintf("crossbar, %d B flits, latency %d cycles", c.ICNT.FlitBytes, c.ICNT.Latency))
	add("Memory", fmt.Sprintf("FR-FCFS, %d MCs x %d banks, tRP=%d tRCD=%d tCAS=%d tBurst=%d tRRD=%d tFAW=%d (core cycles)",
		c.NumMCs, c.Mem.NumBanks, c.Mem.TRP, c.Mem.TRCD, c.Mem.TCAS, c.Mem.TBurst, c.Mem.TRRD, c.Mem.TFAW))
	add("Estimation interval", fmt.Sprintf("%d cycles, %d sampled ATD sets", c.IntervalCycles, c.ATDSampledSets))
	return t
}

// TableI renders the DASE hardware-cost model (paper Table I).
func TableI(p Params, numApps int) *Table {
	cost := core.HardwareCost(numApps, p.Cfg.Mem.NumBanks, p.Cfg.ATDSampledSets, p.Cfg.L2.Assoc, p.Cfg.NumSMs)
	t := &Table{
		Title:   fmt.Sprintf("Table I — DASE hardware cost (N=%d applications)", numApps),
		Columns: []string{"structure", "bits per memory partition"},
	}
	for _, item := range cost.Items {
		t.Rows = append(t.Rows, []string{item.Name, fmt.Sprintf("%d", item.Bits)})
	}
	t.Rows = append(t.Rows, []string{"TOTAL per partition", fmt.Sprintf("%d bits (%.2f KB)", cost.PerPartitionBits, float64(cost.PerPartitionBits)/8/1024)})
	t.Notes = append(t.Notes, fmt.Sprintf("fraction of a 64KB L2 slice: %.3f%%", cost.FractionOfL2(64*1024)*100))
	return t
}
