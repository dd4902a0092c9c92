package fleet

import (
	"bufio"
	"fmt"
	"io"

	"dasesim/internal/stats"
)

// Placement records one job placed during an interval, with the tenant's
// quota standing at the moment of placement — the observation the
// quota-safety invariant is checked against.
type Placement struct {
	Tenant string `json:"tenant"`
	Job    string `json:"job"`
	GPU    int    `json:"gpu"`
	MinSMs int    `json:"min_sms"`
	// ShareAtPlace is the tenant's share ratio (recent average allocation
	// over deserved share, provisional placements included) at the moment
	// this job was placed; OverQuota is ShareAtPlace >= 1 — the tenant was
	// borrowing beyond its deserved share.
	ShareAtPlace float64 `json:"share_at_place"`
	OverQuota    bool    `json:"over_quota"`
}

// TenantRecord is one tenant's row of one interval's allocation history.
type TenantRecord struct {
	Name         string  `json:"name"`
	QuotaSMs     int     `json:"quota_sms"`
	DeservedSMs  float64 `json:"deserved_sms"`
	AllocatedSMs int     `json:"allocated_sms"`
	Running      int     `json:"running"`
	Queued       int     `json:"queued"`
	WindowShare  float64 `json:"window_share"`
	OverQuota    bool    `json:"over_quota"`
	// StartShare is the tenant's share ratio at the start of this
	// interval's placement phase (before any provisional placements);
	// PlacedJobs counts jobs the tenant had placed this interval. The
	// quota-safety checker needs both to reason about placement-time
	// standing from the end-of-interval record.
	StartShare float64 `json:"start_share"`
	PlacedJobs int     `json:"placed_jobs,omitempty"`
	Departed   bool    `json:"departed,omitempty"`
	// QueuedMinSMs lists the SM demand of every job still queued after
	// placement, the work-conservation checker's evidence.
	QueuedMinSMs []int `json:"queued_min_sms,omitempty"`
	// MeanSlowdown is the mean DASE-estimated slowdown of the tenant's
	// running jobs this interval (0 when none ran).
	MeanSlowdown float64 `json:"mean_slowdown,omitempty"`
}

// GPURecord is one GPU's post-placement admission state for one interval.
type GPURecord struct {
	GPU       int `json:"gpu"`
	Residents int `json:"residents"`
	// FreeSlots and FreeSMs are the admission headroom left after
	// placement: concurrency slots and unreserved SMs.
	FreeSlots int `json:"free_slots"`
	FreeSMs   int `json:"free_sms"`
	// ResidentSMs is the sum of the residents' actual SM partition (equals
	// the GPU's SM count whenever it has residents).
	ResidentSMs int `json:"resident_sms"`
}

// IntervalRecord is the durable observation of one scheduling interval.
type IntervalRecord struct {
	Interval   int            `json:"interval"`
	Tenants    []TenantRecord `json:"tenants"`
	GPUs       []GPURecord    `json:"gpus"`
	Placements []Placement    `json:"placements,omitempty"`
	// IdleSMs is the capacity no tenant consumed this interval (SMs of
	// GPUs with no residents).
	IdleSMs int `json:"idle_sms"`
}

// WriteCSV renders the allocation history in the KAI-style long format: one
// row per (interval, tenant) plus an `_idle` row per interval, so each
// interval's allocated_sms column sums to exactly the fleet capacity. All
// floats print with fixed precision — a fixed-seed run produces
// byte-identical CSV bytes, which is what the determinism golden pins.
func WriteCSV(w io.Writer, rec []IntervalRecord) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "interval,tenant,quota_sms,deserved_sms,allocated_sms,running,queued,window_share,over_quota,mean_slowdown")
	for i := range rec {
		r := &rec[i]
		for j := range r.Tenants {
			t := &r.Tenants[j]
			fmt.Fprintf(bw, "%d,%s,%d,%.3f,%d,%d,%d,%.4f,%t,%.4f\n",
				r.Interval, t.Name, t.QuotaSMs, t.DeservedSMs, t.AllocatedSMs,
				t.Running, t.Queued, t.WindowShare, t.OverQuota, t.MeanSlowdown)
		}
		fmt.Fprintf(bw, "%d,_idle,0,0.000,%d,0,0,0.0000,false,0.0000\n", r.Interval, r.IdleSMs)
	}
	return bw.Flush()
}

// TenantSummary aggregates one tenant over a whole run.
type TenantSummary struct {
	Name          string
	QuotaSMs      int
	TotalSMs      int     // SM-intervals allocated over the run
	MeanDeserved  float64 // mean deserved share over intervals present
	MaxDebtSMs    float64 // worst (deserved - allocated) while backlogged
	MeanSlowdown  float64 // mean of per-interval mean DASE slowdowns
	IntervalsSeen int
}

// Summary is the run-level fairness digest fleetsim prints.
type Summary struct {
	Intervals int
	Capacity  int
	IdleSMs   int // total idle SM-intervals
	// JainIndex is Jain's fairness index over per-tenant normalized
	// allocation (total allocated / total deserved): 1.0 means every
	// tenant received exactly proportional service.
	JainIndex float64
	Tenants   []TenantSummary
}

// Summarize folds an allocation history into a Summary.
func Summarize(rec []IntervalRecord, capacity int) Summary {
	s := Summary{Intervals: len(rec), Capacity: capacity}
	byName := map[string]*TenantSummary{}
	var order []string
	slowN := map[string]int{}
	deservedTotal := map[string]float64{}
	for i := range rec {
		r := &rec[i]
		s.IdleSMs += r.IdleSMs
		for j := range r.Tenants {
			t := &r.Tenants[j]
			ts, ok := byName[t.Name]
			if !ok {
				ts = &TenantSummary{Name: t.Name, QuotaSMs: t.QuotaSMs}
				byName[t.Name] = ts
				order = append(order, t.Name)
			}
			ts.TotalSMs += t.AllocatedSMs
			ts.IntervalsSeen++
			deservedTotal[t.Name] += t.DeservedSMs
			if t.Queued > 0 {
				if debt := t.DeservedSMs - float64(t.AllocatedSMs); debt > ts.MaxDebtSMs {
					ts.MaxDebtSMs = debt
				}
			}
			if t.MeanSlowdown > 0 {
				ts.MeanSlowdown += t.MeanSlowdown
				slowN[t.Name]++
			}
		}
	}
	shares := make([]float64, 0, len(order)) // TotalSMs / deserved, per tenant with a deserved share
	for _, name := range order {
		ts := byName[name]
		if ts.IntervalsSeen > 0 {
			ts.MeanDeserved = deservedTotal[name] / float64(ts.IntervalsSeen)
		}
		if c := slowN[name]; c > 0 {
			ts.MeanSlowdown /= float64(c)
		}
		if d := deservedTotal[name]; d > 0 {
			shares = append(shares, float64(ts.TotalSMs)/d)
		}
		s.Tenants = append(s.Tenants, *ts)
	}
	s.JainIndex = stats.Jain(shares)
	return s
}
