package experiments

import (
	"fmt"
	"math"

	"dasesim/internal/kernels"
	"dasesim/internal/sim"
	"dasesim/internal/workload"
)

// Fig2Pairs are the two-application combinations shown in the motivation
// figure. The paper picks pairs around SD (srad); we show the pairs whose
// interference is strongest on this substrate, keeping SD-based pairs for
// comparability.
var Fig2Pairs = [][2]string{
	{"SA", "SD"}, {"SB", "SD"}, {"VA", "CT"}, {"NN", "CT"}, {"BS", "SA"},
}

// Fig2Row is one workload of Figure 2(a): measured unfairness under the
// even SM split.
type Fig2Row struct {
	Workload   string
	Slowdowns  []float64
	Unfairness float64
}

// Fig2a measures unfairness for the motivation pairs (paper Fig. 2(a)).
func Fig2a(p Params, cache workload.Baseline) ([]Fig2Row, error) {
	opt := p.evalOptions()
	opt.Estimators = nil
	rows := make([]Fig2Row, 0, len(Fig2Pairs))
	for _, pr := range Fig2Pairs {
		a, ok := kernels.ByAbbr(pr[0])
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", pr[0])
		}
		b, ok := kernels.ByAbbr(pr[1])
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", pr[1])
		}
		combo := workload.Combo{Profiles: []kernels.Profile{a, b}}
		ev, err := workload.Evaluate(opt, combo, evenAlloc(p.Cfg.NumSMs, 2), cache)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Row{
			Workload:   combo.Name(),
			Slowdowns:  ev.Actual,
			Unfairness: ev.Unfairness,
		})
	}
	return rows, nil
}

// RenderFig2a renders Figure 2(a).
func RenderFig2a(rows []Fig2Row) *Table {
	t := &Table{
		Title:   "Fig.2(a) — Unfairness of two-application combinations (even SM split)",
		Columns: []string{"workload", "slowdown A", "slowdown B", "unfairness"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Workload, f2(r.Slowdowns[0]), f2(r.Slowdowns[1]), f2(r.Unfairness)})
	}
	t.Notes = append(t.Notes, "ideal (completely fair) unfairness is 1.00")
	return t
}

// Fig2bRow decomposes DRAM bandwidth for one workload: the victim's share,
// the co-runners' share, timing-constraint waste, and idle (paper Fig. 2(b)),
// plus the victim's share when running alone.
type Fig2bRow struct {
	Workload    string
	VictimShare float64
	OtherShare  float64
	Wasted      float64
	Idle        float64
	VictimAlone float64 // victim's attained BW when running alone
}

// Fig2b decomposes bandwidth for the motivation pairs; the second kernel of
// each pair is treated as the victim (as SD is in the paper).
func Fig2b(p Params, cache workload.Baseline) ([]Fig2bRow, error) {
	rows := make([]Fig2bRow, 0, len(Fig2Pairs))
	for _, pr := range Fig2Pairs {
		a, _ := kernels.ByAbbr(pr[0])
		b, _ := kernels.ByAbbr(pr[1])
		shared, err := sim.RunShared(p.Cfg, []kernels.Profile{a, b}, evenAlloc(p.Cfg.NumSMs, 2), p.SharedCycles, p.Seed)
		if err != nil {
			return nil, err
		}
		alone, err := cache.Get(b)
		if err != nil {
			return nil, err
		}
		r := Fig2bRow{
			Workload:    a.Abbr + "+" + b.Abbr,
			VictimShare: shared.Apps[1].BWUtil,
			OtherShare:  shared.Apps[0].BWUtil,
			VictimAlone: alone.Apps[0].BWUtil,
		}
		if shared.BusCycles > 0 {
			r.Wasted = float64(shared.BusWasted) / float64(shared.BusCycles)
			r.Idle = float64(shared.BusIdle) / float64(shared.BusCycles)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// RenderFig2b renders Figure 2(b).
func RenderFig2b(rows []Fig2bRow) *Table {
	t := &Table{
		Title:   "Fig.2(b) — DRAM bandwidth decomposition (second app = victim)",
		Columns: []string{"workload", "victim", "others", "wasted", "idle", "victim-alone"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload, pct(r.VictimShare), pct(r.OtherShare), pct(r.Wasted), pct(r.Idle), pct(r.VictimAlone),
		})
	}
	t.Notes = append(t.Notes,
		"DRAM-level victims (e.g. SD) keep less bandwidth than alone; cache-level victims (e.g. CT) draw MORE — their extra traffic is contention misses",
	)
	return t
}

// Fig3Row is one point of the performance-vs-service-rate validation: a
// fixed memory-intensive kernel run under scaled memory throughput.
type Fig3Row struct {
	BWScale     float64 // memory-bandwidth scale factor applied
	ServiceRate float64 // served requests per 1000 cycles
	IPC         float64
}

// Fig3 runs a fixed memory-intensive kernel (SB) while sweeping the DRAM
// throughput (burst and activation-window scaling), so its attained request
// service rate varies; the paper's observation — the performance of a
// memory-intensive application is directly proportional to its request
// service rate — should appear as a near-1 correlation. (The paper sweeps
// "memory intensity" of a CUDA kernel; scaling the service rate of a fixed
// kernel exercises the same proportionality without changing the
// instructions-per-request ratio.)
func Fig3(p Params) ([]Fig3Row, float64, error) {
	base, _ := kernels.ByAbbr("SB")
	scales := []float64{1.0, 1.5, 2.0, 3.0, 4.0, 6.0}
	rows := make([]Fig3Row, 0, len(scales))
	for _, s := range scales {
		cfg := p.Cfg
		cfg.Mem.TBurst = uint64(float64(cfg.Mem.TBurst) * s)
		cfg.Mem.TFAW = uint64(float64(cfg.Mem.TFAW) * s)
		cfg.Mem.TRRD = uint64(float64(cfg.Mem.TRRD) * s)
		res, err := sim.RunAlone(cfg, base, p.SharedCycles, p.Seed)
		if err != nil {
			return nil, 0, err
		}
		a := res.Apps[0]
		rows = append(rows, Fig3Row{
			BWScale:     1 / s,
			ServiceRate: float64(a.Served) / float64(res.Cycles) * 1000,
			IPC:         a.IPC,
		})
	}
	return rows, correlation(rows), nil
}

// correlation returns the Pearson correlation between service rate and IPC.
func correlation(rows []Fig3Row) float64 {
	n := float64(len(rows))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for _, r := range rows {
		sx += r.ServiceRate
		sy += r.IPC
		sxx += r.ServiceRate * r.ServiceRate
		syy += r.IPC * r.IPC
		sxy += r.ServiceRate * r.IPC
	}
	num := n*sxy - sx*sy
	den := (n*sxx - sx*sx) * (n*syy - sy*sy)
	if den <= 0 {
		return 0
	}
	return num / math.Sqrt(den)
}

// RenderFig3 renders Figure 3.
func RenderFig3(rows []Fig3Row, corr float64) *Table {
	t := &Table{
		Title:   "Fig.3 — Performance vs request service rate (SB alone, DRAM throughput sweep)",
		Columns: []string{"bw scale", "served/1Kcyc", "IPC"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f", r.BWScale), f2(r.ServiceRate), f2(r.IPC)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Pearson correlation(service rate, IPC) = %.3f (paper: directly proportional)", corr))
	return t
}

// Fig4Row compares SB's served requests alone against the summed served
// requests of SB and its partner when sharing (paper Fig. 4).
type Fig4Row struct {
	Partner     string
	AloneRate   float64 // SB alone, served per 1000 cycles
	SharedSum   float64 // SB + partner combined, served per 1000 cycles
	SharedSB    float64
	SharedOther float64
}

// Fig4 runs SB against several partners.
func Fig4(p Params, cache workload.Baseline) ([]Fig4Row, error) {
	sb, _ := kernels.ByAbbr("SB")
	alone, err := cache.Get(sb)
	if err != nil {
		return nil, err
	}
	aloneRate := float64(alone.Apps[0].Served) / float64(alone.Cycles) * 1000
	partners := []string{"SA", "VA", "SD", "NN", "AT"}
	rows := make([]Fig4Row, 0, len(partners))
	for _, pa := range partners {
		prof, ok := kernels.ByAbbr(pa)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", pa)
		}
		shared, err := sim.RunShared(p.Cfg, []kernels.Profile{sb, prof}, evenAlloc(p.Cfg.NumSMs, 2), p.SharedCycles, p.Seed)
		if err != nil {
			return nil, err
		}
		sbRate := float64(shared.Apps[0].Served) / float64(shared.Cycles) * 1000
		otherRate := float64(shared.Apps[1].Served) / float64(shared.Cycles) * 1000
		rows = append(rows, Fig4Row{
			Partner:     pa,
			AloneRate:   aloneRate,
			SharedSum:   sbRate + otherRate,
			SharedSB:    sbRate,
			SharedOther: otherRate,
		})
	}
	return rows, nil
}

// RenderFig4 renders Figure 4.
func RenderFig4(rows []Fig4Row) *Table {
	t := &Table{
		Title:   "Fig.4 — Served requests per 1K cycles: SB alone vs SB+partner shared sum",
		Columns: []string{"partner", "SB alone", "shared sum", "SB shared", "partner shared"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Partner, f2(r.AloneRate), f2(r.SharedSum), f2(r.SharedSB), f2(r.SharedOther)})
	}
	t.Notes = append(t.Notes, "the paper's MBB observation: alone ≈ shared sum")
	return t
}
