// Package fleet lifts the paper's single-GPU fairness policy to a
// multi-GPU, multi-tenant fair-share scheduling layer — the datacenter
// question above DASE-Fair. Hierarchical tenant queues with deserved quotas
// and over-quota weights submit kernel jobs (Table III profiles) against a
// fleet of simulated GPUs; a time-aware fair-share policy tracks each
// tenant's allocation history over a sliding window and places jobs onto
// GPUs using DASE estimated slowdowns as the contention signal, then
// partitions each GPU's SMs among its residents with the paper's partition
// search (sched.PartitionSearch).
//
// The scheduler is fully deterministic: tenants are kept in submission
// order, every sort has an explicit tie-breaker, all randomness derives
// from the fleet seed via splitmix64, and the ground-truth engine derives
// per-invocation seeds from (fleet seed, gpu, epoch). A fixed-seed run
// therefore produces a byte-identical allocation-history CSV across
// processes, pinned by the eighth determinism golden.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/telemetry"
)

// TenantSpec declares one tenant queue of the hierarchy.
type TenantSpec struct {
	Name string `json:"name"`
	// QuotaSMs is the tenant's deserved fleet-wide SM count. Quotas may
	// oversubscribe the fleet; deserved shares are then scaled down
	// proportionally.
	QuotaSMs int `json:"quota_sms"`
	// Weight distributes surplus capacity (fleet SMs beyond the quota sum)
	// among tenants willing to borrow over quota. Zero means the tenant
	// never receives a deserved share beyond its quota (it can still run
	// on otherwise-idle capacity — the fleet is work conserving).
	Weight float64 `json:"weight"`
}

// JobSpec is one kernel job submitted to a tenant queue.
type JobSpec struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Kernel is shared, not copied: every job of a trace may point at the
	// same profile. A profile must not change once a job pointing at it
	// is submitted.
	Kernel *kernels.Profile `json:"kernel"`
	// MinSMs is the job's SM demand: the GPU slot it occupies reserves this
	// many SMs for admission purposes. The actual per-interval SM partition
	// of a GPU is dynamic (DASE-Fair style) but never drops a job below
	// MinSMs.
	MinSMs int `json:"min_sms"`
	// Work is the warp-instruction budget; the job completes once it has
	// retired this many instructions.
	Work uint64 `json:"work"`
}

// Config assembles a fleet.
type Config struct {
	// GPUs is the number of identical simulated GPUs, each with GPU SMs.
	GPUs int
	// GPU is the per-GPU hardware configuration (config.Default for the
	// Table II machine).
	GPU config.Config
	// Tenants present at construction; more may join via AddTenant.
	Tenants []TenantSpec
	// WindowIntervals is the sliding allocation-history window the
	// time-aware share accounting uses (default 8 intervals).
	WindowIntervals int
	// MaxJobsPerGPU bounds spatial-multitasking concurrency per GPU
	// (default 4, the paper's maximum).
	MaxJobsPerGPU int
	// IntervalCycles is the scheduling-interval length in GPU cycles
	// (default GPU.IntervalCycles).
	IntervalCycles uint64
	// Seed drives every deterministic random choice.
	Seed uint64
	// Engine supplies per-interval ground truth (default ModelEngine). An
	// engine value serves one Fleet (see Engine).
	Engine Engine
	// Tracer receives fleet.job and fleet.interval telemetry events
	// (nil = disabled, the repo-standard observation-only discipline).
	Tracer *telemetry.Tracer
}

// ErrJobTooLarge marks a job demanding more SMs than any GPU has. Such a
// job is rejected at submission — it must not wedge the tenant's queue.
var ErrJobTooLarge = errors.New("fleet: job demands more SMs than any GPU has")

// job is the scheduler's view of one submitted job.
type job struct {
	spec    JobSpec
	tenant  *tenant
	gpu     int    // -1 while queued
	done    uint64 // instructions retired so far
	alloc   int    // SMs currently assigned on its GPU
	estSlow float64
}

// tenant is one queue plus its time-aware share accounting.
type tenant struct {
	spec    TenantSpec
	index   int // stable telemetry index, assigned at Add time
	queue   []*job
	running int
	// window is a ring of per-interval fleet-wide allocated SMs; usage is
	// its running sum. usage/window-length is the tenant's recent average
	// allocation, the quantity deserved shares are compared against.
	window     []int
	windowAt   int
	usage      int
	deserved   float64 // recomputed each interval
	placed     int     // SMs placed this interval (provisional usage)
	placedJobs int     // jobs placed this interval
	startShare float64 // share ratio at the start of the placement phase
	departed   bool
	// Per-interval sums account accumulates in its one pass over the GPUs.
	smsNow  int
	slowSum float64
	slowN   int
}

// overQuota reports whether the tenant is currently consuming at or beyond
// its deserved share: its recent average allocation, plus what it was
// already granted this interval, covers deserved. Placement priority and
// the quota-safety invariant both key off this.
func (t *tenant) overQuota() bool {
	return t.shareRatio() >= 1
}

// shareRatio is recent-average-allocation / deserved share; lower ratios
// are more underserved and place first. Zero-deserved tenants rank last
// (ratio +Inf via the epsilon) but still run on idle capacity.
func (t *tenant) shareRatio() float64 {
	avg := float64(t.usage)/float64(len(t.window)) + float64(t.placed)
	d := t.deserved
	if d < 1e-9 {
		d = 1e-9
	}
	return avg / d
}

// scoreEntry is one memoised predictContention result.
type scoreEntry struct {
	kernel *kernels.Profile
	score  float64
}

// gpuState is one GPU of the fleet: its resident jobs and their current SM
// partition (parallel slices), what is derived from the resident set, plus
// the scratch the predictor, DASE and the partition search reuse across
// intervals, so that in steady state none of them allocates.
type gpuState struct {
	id    int
	jobs  []*job
	alloc []int
	epoch int

	// profiles is the residents' kernels, parallel to jobs; reserved is the
	// sum of their admission demands, and memo the placement score of every
	// newcomer kernel asked about since jobs last changed. place and
	// finishJobs, the only writers of jobs, keep all three.
	profiles []kernels.Profile
	reserved int
	memo     []scoreEntry

	estScratch []core.AppEstimate
	slowBuf    []float64
	curBuf     []int
	search     sched.PartitionSearch
	predAlloc  []int
	snap       sim.IntervalSnapshot
	demand     []float64
}

// Fleet is the multi-GPU multi-tenant scheduler.
type Fleet struct {
	cfg      Config
	tenants  []*tenant
	byName   map[string]*tenant
	gpus     []*gpuState
	order    []*tenant   // priorityOrder's result, reused every round
	placeBuf []Placement // place's working list, copied out exact-size
	interval int
	nTenants int // tenants ever added, for stable indices
	est      *core.DASE
	rec      []IntervalRecord
}

// New validates the configuration and builds an idle fleet.
func New(cfg Config) (*Fleet, error) {
	if cfg.GPUs <= 0 {
		return nil, errors.New("fleet: need at least one GPU")
	}
	if err := cfg.GPU.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.WindowIntervals <= 0 {
		cfg.WindowIntervals = 8
	}
	if cfg.MaxJobsPerGPU <= 0 {
		cfg.MaxJobsPerGPU = 4
	}
	if cfg.MaxJobsPerGPU > telemetry.MaxApps {
		return nil, fmt.Errorf("fleet: MaxJobsPerGPU %d exceeds %d", cfg.MaxJobsPerGPU, telemetry.MaxApps)
	}
	if cfg.GPUs > math.MaxInt32/cfg.GPU.NumSMs {
		return nil, fmt.Errorf("fleet: %d GPUs of %d SMs exceed the history's int32 range", cfg.GPUs, cfg.GPU.NumSMs)
	}
	if cfg.IntervalCycles == 0 {
		cfg.IntervalCycles = cfg.GPU.IntervalCycles
	}
	if cfg.Engine == nil {
		cfg.Engine = &ModelEngine{Cfg: cfg.GPU}
	}
	f := &Fleet{cfg: cfg, byName: map[string]*tenant{}, est: core.New(core.Options{})}
	for i := 0; i < cfg.GPUs; i++ {
		f.gpus = append(f.gpus, &gpuState{id: i})
	}
	for _, ts := range cfg.Tenants {
		if err := f.AddTenant(ts); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// AddTenant registers a new tenant queue; it may be called mid-run (the
// tenant joins with an empty allocation window, i.e. maximally underserved).
func (f *Fleet) AddTenant(ts TenantSpec) error {
	if ts.Name == "" || ts.Name[0] == '_' {
		return fmt.Errorf("fleet: invalid tenant name %q (empty or reserved)", ts.Name)
	}
	if _, dup := f.byName[ts.Name]; dup {
		return fmt.Errorf("fleet: duplicate tenant %q", ts.Name)
	}
	if ts.QuotaSMs < 0 || ts.Weight < 0 {
		return fmt.Errorf("fleet: tenant %q: negative quota or weight", ts.Name)
	}
	if ts.QuotaSMs > math.MaxInt32 {
		return fmt.Errorf("fleet: tenant %q: quota %d exceeds the history's int32 range", ts.Name, ts.QuotaSMs)
	}
	t := &tenant{spec: ts, index: f.nTenants, window: make([]int, f.cfg.WindowIntervals)}
	f.nTenants++
	f.tenants = append(f.tenants, t)
	f.byName[ts.Name] = t
	return nil
}

// RemoveTenant starts a tenant's departure: its queued jobs are cancelled
// immediately and it receives no further placements; running jobs finish,
// after which the tenant is dropped from the fleet.
func (f *Fleet) RemoveTenant(name string) error {
	t, ok := f.byName[name]
	if !ok || t.departed {
		return fmt.Errorf("fleet: unknown tenant %q", name)
	}
	t.departed = true
	for _, j := range t.queue {
		f.emitJob(j, "cancel", -1)
	}
	t.queue = nil
	f.reap()
	return nil
}

// Submit validates and enqueues one job. A job demanding more SMs than any
// GPU has is rejected with ErrJobTooLarge — rejected, not queued, so an
// impossible job can never wedge the tenant's queue.
func (f *Fleet) Submit(js JobSpec) error {
	t, ok := f.byName[js.Tenant]
	if !ok || t.departed {
		return fmt.Errorf("fleet: job %q: unknown tenant %q", js.ID, js.Tenant)
	}
	if js.MinSMs <= 0 {
		return fmt.Errorf("fleet: job %q: MinSMs must be positive", js.ID)
	}
	if js.Work == 0 {
		return fmt.Errorf("fleet: job %q: Work must be positive", js.ID)
	}
	if js.Kernel == nil {
		return fmt.Errorf("fleet: job %q: no kernel", js.ID)
	}
	if err := js.Kernel.Validate(); err != nil {
		return fmt.Errorf("fleet: job %q: %w", js.ID, err)
	}
	j := &job{spec: js, tenant: t, gpu: -1}
	if js.MinSMs > f.cfg.GPU.NumSMs {
		f.emitJob(j, "reject", -1)
		return fmt.Errorf("fleet: job %q: needs %d SMs, GPUs have %d: %w",
			js.ID, js.MinSMs, f.cfg.GPU.NumSMs, ErrJobTooLarge)
	}
	t.queue = append(t.queue, j)
	f.emitJob(j, "arrive", -1)
	return nil
}

// Capacity is the fleet-wide SM count.
func (f *Fleet) Capacity() int { return f.cfg.GPUs * f.cfg.GPU.NumSMs }

// Interval returns how many scheduling intervals have completed.
func (f *Fleet) Interval() int { return f.interval }

// QueuedJobs counts jobs waiting across all tenant queues.
func (f *Fleet) QueuedJobs() int {
	n := 0
	for _, t := range f.tenants {
		n += len(t.queue)
	}
	return n
}

// RunningJobs counts jobs resident on GPUs.
func (f *Fleet) RunningJobs() int {
	n := 0
	for _, g := range f.gpus {
		n += len(g.jobs)
	}
	return n
}

// Records returns the per-interval allocation-history record accumulated so
// far (the input of the CSV writer and the fairness invariant checkers).
func (f *Fleet) Records() []IntervalRecord { return f.rec }

// Tick advances the fleet by one scheduling interval: recompute deserved
// shares, place queued jobs in time-aware fair-share order, repartition
// every busy GPU's SMs with the DASE signal, run the ground-truth engine,
// retire completed jobs, and append the interval's allocation record.
func (f *Fleet) Tick() error {
	f.computeDeserved()
	placements := f.place()
	for _, g := range f.gpus {
		f.repartition(g)
	}
	if err := f.execute(); err != nil {
		return err
	}
	f.account(placements)
	f.finishJobs()
	f.reap()
	f.interval++
	return nil
}

// computeDeserved converts quotas and over-quota weights into this
// interval's deserved SM shares: quotas scaled down proportionally when
// they oversubscribe the fleet, and surplus capacity distributed by weight
// when they undersubscribe it.
func (f *Fleet) computeDeserved() {
	capacity := float64(f.Capacity())
	totalQuota, totalWeight := 0.0, 0.0
	for _, t := range f.tenants {
		if t.departed {
			continue
		}
		totalQuota += float64(t.spec.QuotaSMs)
		totalWeight += t.spec.Weight
	}
	for _, t := range f.tenants {
		t.placed, t.placedJobs = 0, 0
		if t.departed {
			t.deserved = 0
			t.startShare = t.shareRatio()
			continue
		}
		q := float64(t.spec.QuotaSMs)
		switch {
		case totalQuota > capacity:
			t.deserved = q * capacity / totalQuota
		case totalWeight > 0:
			t.deserved = q + (capacity-totalQuota)*t.spec.Weight/totalWeight
		default:
			t.deserved = q
		}
		t.startShare = t.shareRatio()
	}
}

// fits reports whether the job can be admitted to the GPU right now.
func (f *Fleet) fits(g *gpuState, j *job) bool {
	return len(g.jobs) < f.cfg.MaxJobsPerGPU &&
		g.reserved+j.spec.MinSMs <= f.cfg.GPU.NumSMs
}

// place runs the fair-share placement loop: repeatedly offer the most
// underserved tenant (lowest share ratio, provisional placements included)
// its first placeable queued job, until no queued job fits anywhere. The
// loop is exhaustive, which makes the fleet work conserving by
// construction: placement only stops when nothing placeable remains.
// Within a tenant the queue is FIFO with skip — a small job may overtake a
// blocked head (backfill) so one large job cannot idle the fleet.
func (f *Fleet) place() []Placement {
	f.placeBuf = f.placeBuf[:0]
	for {
		placed := false
		for _, t := range f.priorityOrder() {
			qi, g := f.firstPlaceable(t)
			if qi < 0 {
				continue
			}
			j := t.queue[qi]
			t.queue = append(t.queue[:qi], t.queue[qi+1:]...)
			share := t.shareRatio()
			j.gpu = g.id
			j.alloc = j.spec.MinSMs
			j.estSlow = 0
			g.jobs = append(g.jobs, j)
			g.alloc = append(g.alloc, j.spec.MinSMs)
			g.profiles = append(g.profiles, *j.spec.Kernel)
			g.reserved += j.spec.MinSMs
			g.memo = g.memo[:0]
			t.running++
			t.placed += j.spec.MinSMs
			t.placedJobs++
			f.placeBuf = append(f.placeBuf, Placement{
				Tenant: t.spec.Name, Job: j.spec.ID, GPU: int32(g.id),
				MinSMs: int32(j.spec.MinSMs), ShareAtPlace: share, OverQuota: share >= 1,
			})
			f.emitJob(j, "place", g.id)
			placed = true
			break
		}
		if !placed {
			// The record keeps the placements, so they leave the scratch.
			return append([]Placement(nil), f.placeBuf...)
		}
	}
}

// priorityOrder sorts active tenants most-underserved first, ties broken by
// name for determinism. Names are unique, so (share ratio, name) is a total
// order and the insertion sort's result is the only one there is.
func (f *Fleet) priorityOrder() []*tenant {
	order := f.order[:0]
	for _, t := range f.tenants {
		if t.departed || len(t.queue) == 0 {
			continue
		}
		r := t.shareRatio()
		i := len(order)
		order = append(order, t)
		for ; i > 0; i-- {
			if ro := order[i-1].shareRatio(); ro < r || (ro == r && order[i-1].spec.Name < t.spec.Name) {
				break
			}
			order[i] = order[i-1]
		}
		order[i] = t
	}
	f.order = order
	return order
}

// firstPlaceable scans the tenant's queue in FIFO order for the first job
// some GPU can admit, returning its queue index and the chosen GPU
// (DASE-scored), or (-1, nil).
func (f *Fleet) firstPlaceable(t *tenant) (int, *gpuState) {
	for qi, j := range t.queue {
		if g := f.chooseGPU(j); g != nil {
			return qi, g
		}
	}
	return -1, nil
}

// chooseGPU picks the admissible GPU whose predicted post-placement
// contention is lowest. The prediction synthesizes the candidate
// co-schedule's interval counters and reads them with DASE — estimated
// slowdowns are the packing signal, exactly the role the estimator plays
// inside DASE-Fair. Ties prefer fewer residents, then the lowest GPU id.
func (f *Fleet) chooseGPU(j *job) *gpuState {
	var best *gpuState
	bestScore := 0.0
	for _, g := range f.gpus {
		if !f.fits(g, j) {
			continue
		}
		score := f.predictContention(g, j)
		if best == nil || score < bestScore ||
			(score == bestScore && len(g.jobs) < len(best.jobs)) {
			best, bestScore = g, score
		}
	}
	return best
}

// predictContention scores a candidate placement: synthesize the interval
// snapshot of the GPU's residents plus the newcomer (each at its admission
// demand, remainder to the newcomer), estimate every app's slowdown with
// DASE, and return the predicted maximum slowdown. An empty GPU scores 1
// (no contention) minus a small bonus so spreading wins ties.
//
// The score is a pure function of the residents' kernels and demands in
// order, the newcomer's kernel, the GPU id, the fleet seed and the
// configuration — not of the newcomer's own demand, which only admission
// reads. So it is memoised per newcomer kernel until the resident set
// changes; the key is the whole profile, compared with ==, so no field the
// model reads can be missing from it. Jobs of one trace share their
// profiles, so the pointers are compared first and most hits stop there.
func (f *Fleet) predictContention(g *gpuState, j *job) float64 {
	k := j.spec.Kernel
	for i := range g.memo {
		if e := &g.memo[i]; e.kernel == k || *e.kernel == *k {
			return e.score
		}
	}
	alloc := g.predAlloc[:0]
	for _, r := range g.jobs {
		alloc = append(alloc, r.spec.MinSMs)
	}
	alloc = append(alloc, f.cfg.GPU.NumSMs-g.reserved) // newcomer gets the remainder
	profiles := append(g.profiles, *k)                 // past the residents, truncated below
	g.predAlloc = alloc
	g.demand = synthesizeSnapshot(&g.snap, g.demand, &f.cfg.GPU, profiles, alloc,
		f.cfg.IntervalCycles, engineSeed(f.cfg.Seed, g.id, -1))
	g.profiles = profiles[:len(g.jobs)]
	g.estScratch = f.est.EstimateDetailedInto(&g.snap, g.estScratch)
	worst := 1.0
	for i := range g.estScratch {
		if s := g.estScratch[i].Slowdown; s > worst {
			worst = s
		}
	}
	if len(g.jobs) == 0 {
		worst -= 1e-9 // empty GPU wins exact ties against equal contention
	}
	g.memo = append(g.memo, scoreEntry{k, worst})
	return worst
}

// repartition splits the GPU's SMs among its residents for the coming
// interval: DASE slowdown estimates from the previous interval's ground
// truth (or the placement prediction for newcomers) feed the paper's
// partition search, and the winning partition is clamped so no
// job drops below its admission demand. A lone resident gets every SM.
func (f *Fleet) repartition(g *gpuState) {
	n := len(g.jobs)
	if n == 0 {
		return
	}
	total := f.cfg.GPU.NumSMs
	if n == 1 {
		g.alloc[0] = total
		g.jobs[0].alloc = total
		return
	}
	if cap(g.slowBuf) < n {
		g.slowBuf = make([]float64, n)
		g.curBuf = make([]int, n)
	}
	slow, cur := g.slowBuf[:n], g.curBuf[:n]
	for i, j := range g.jobs {
		s := j.estSlow
		if s < 1 {
			s = 1 // newcomer or first interval: no estimate yet
		}
		slow[i] = s
		cur[i] = g.alloc[i]
	}
	best, _ := g.search.Fair(slow, cur, total, 1)
	if best == nil {
		best = sim.EvenAllocation(total, n)
	}
	clampToMinimums(best, g.jobs, total)
	for i, j := range g.jobs {
		g.alloc[i] = best[i]
		j.alloc = best[i]
	}
}

// clampToMinimums raises every entry to its job's admission demand, taking
// the difference from the largest surplus holders (deterministically: the
// lowest-indexed largest entry first). Admission guarantees Σ demands ≤
// total, so the fixup always terminates.
func clampToMinimums(alloc []int, jobs []*job, total int) {
	for i, j := range jobs {
		for alloc[i] < j.spec.MinSMs {
			// Take one SM from the entry with the most surplus.
			donor, surplus := -1, 0
			for k, jk := range jobs {
				if s := alloc[k] - jk.spec.MinSMs; s > surplus {
					donor, surplus = k, s
				}
			}
			if donor < 0 {
				return // Σ demands == total and everyone is at minimum
			}
			alloc[donor]--
			alloc[i]++
		}
	}
}

// execute runs the ground-truth engine for every busy GPU, advances job
// progress, and refreshes each job's DASE slowdown estimate from the real
// interval counters (the signal the next repartition and the telemetry
// consume). The cycle engine's intervals run concurrently first (see
// simIntervals); every other engine is called in the fold itself. The fold
// walks the GPUs in order and stops at the first error, so state and error
// are those of one sequential pass either way.
func (f *Fleet) execute() error {
	var ahead []intervalResult
	if e, ok := f.cfg.Engine.(*SimEngine); ok {
		ahead = f.simIntervals(e)
	}
	for gi, g := range f.gpus {
		if len(g.jobs) == 0 {
			continue
		}
		var r intervalResult
		if ahead != nil {
			r = ahead[gi]
		} else {
			r.snap, r.instr, r.err = f.cfg.Engine.Interval(g.id, g.epoch, g.profiles, g.alloc, f.cfg.Seed, f.cfg.IntervalCycles)
		}
		if r.err != nil {
			return r.err
		}
		g.epoch++
		g.estScratch = f.est.EstimateDetailedInto(r.snap, g.estScratch)
		for i, j := range g.jobs {
			j.done += r.instr[i]
			j.estSlow = g.estScratch[i].Slowdown
		}
	}
	return nil
}

// intervalResult is what one GPU's Engine.Interval returned.
type intervalResult struct {
	snap  *sim.IntervalSnapshot
	instr []uint64
	err   error
}

// simIntervals runs the interval of every busy GPU on the cycle engine, on
// min(GOMAXPROCS, busy GPUs) goroutines that take GPU indices from a shared
// counter, and returns the results indexed by GPU. The runs are independent:
// each is seeded per (fleet seed, gpu, epoch), reads only its own GPU's
// kernels and partition, and returns fresh results, so the order they finish
// in cannot reach the fold. Nothing is written to the fleet until all have
// returned.
func (f *Fleet) simIntervals(e *SimEngine) []intervalResult {
	busy := 0
	for _, g := range f.gpus {
		if len(g.jobs) > 0 {
			busy++
		}
	}
	out := make([]intervalResult, len(f.gpus))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), busy) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(f.gpus) {
					return
				}
				if g := f.gpus[gi]; len(g.jobs) > 0 {
					r := &out[gi]
					r.snap, r.instr, r.err = e.Interval(g.id, g.epoch, g.profiles, g.alloc, f.cfg.Seed, f.cfg.IntervalCycles)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// finishJobs retires every job whose work budget is met. A GPU's parallel
// slices are compacted from its first finished job on; a GPU with none is
// left alone, so an interval in which nothing finishes copies no profiles.
func (f *Fleet) finishJobs() {
	for _, g := range f.gpus {
		n := 0
		for n < len(g.jobs) && g.jobs[n].done < g.jobs[n].spec.Work {
			n++
		}
		if n == len(g.jobs) {
			continue
		}
		for i := n; i < len(g.jobs); i++ {
			j := g.jobs[i]
			if j.done >= j.spec.Work {
				j.tenant.running--
				g.reserved -= j.spec.MinSMs
				g.memo = g.memo[:0]
				f.emitJob(j, "done", g.id)
				continue
			}
			g.jobs[n], g.alloc[n], g.profiles[n] = j, g.alloc[i], g.profiles[i]
			n++
		}
		g.jobs, g.alloc, g.profiles = g.jobs[:n], g.alloc[:n], g.profiles[:n]
	}
}

// reap drops departed tenants once they have fully drained.
func (f *Fleet) reap() {
	kept := f.tenants[:0]
	for _, t := range f.tenants {
		if t.departed && t.running == 0 && len(t.queue) == 0 {
			delete(f.byName, t.spec.Name)
			continue
		}
		kept = append(kept, t)
	}
	f.tenants = kept
}

// account pushes this interval's per-tenant allocations into the sliding
// windows and appends the interval's record (the durable observation the
// CSV writer and the invariant checkers both read).
func (f *Fleet) account(placements []Placement) {
	rec := IntervalRecord{
		Interval: int32(f.interval), Placements: placements,
		Tenants: make([]TenantRecord, 0, len(f.tenants)),
		GPUs:    make([]GPURecord, len(f.gpus)),
	}
	for _, t := range f.tenants {
		t.smsNow, t.slowSum, t.slowN = 0, 0, 0
	}
	// One pass over the GPUs in id order: each tenant's sums see its jobs in
	// the order a per-tenant scan would, so the float sums are the same.
	for gi, g := range f.gpus {
		gr := &rec.GPUs[gi]
		*gr = GPURecord{
			GPU: int32(g.id), Residents: int32(len(g.jobs)),
			FreeSlots: int32(f.cfg.MaxJobsPerGPU - len(g.jobs)),
			FreeSMs:   int32(f.cfg.GPU.NumSMs - g.reserved),
		}
		for i, j := range g.jobs {
			gr.ResidentSMs += int32(g.alloc[i])
			j.tenant.smsNow += g.alloc[i]
			if j.estSlow >= 1 {
				j.tenant.slowSum += j.estSlow
				j.tenant.slowN++
			}
		}
	}
	allocated := 0
	for _, t := range f.tenants {
		smsNow := t.smsNow
		allocated += smsNow
		t.usage += smsNow - t.window[t.windowAt]
		t.window[t.windowAt] = smsNow
		t.windowAt = (t.windowAt + 1) % len(t.window)
		// The recorded share reflects the refreshed window alone: this
		// interval's allocation is already inside usage, so the provisional
		// placement count must not be double-counted.
		t.placed = 0

		tr := TenantRecord{
			Name:         t.spec.Name,
			QuotaSMs:     int32(t.spec.QuotaSMs),
			DeservedSMs:  t.deserved,
			AllocatedSMs: int32(smsNow),
			Running:      int32(t.running),
			Queued:       int32(len(t.queue)),
			WindowShare:  t.shareRatio(),
			OverQuota:    t.overQuota(),
			StartShare:   t.startShare,
			PlacedJobs:   int32(t.placedJobs),
			Departed:     t.departed,
		}
		if len(t.queue) > 0 {
			tr.QueuedMinSMs = make([]int, len(t.queue))
			for i, j := range t.queue {
				tr.QueuedMinSMs[i] = j.spec.MinSMs
			}
		}
		if t.slowN > 0 {
			tr.MeanSlowdown = t.slowSum / float64(t.slowN)
		}
		rec.Tenants = append(rec.Tenants, tr)

		if f.cfg.Tracer != nil {
			f.cfg.Tracer.Emit(telemetry.Event{
				Kind: telemetry.KindFleetInterval, Cycle: uint64(f.interval),
				App: int32(t.index), SM: -1, Note: t.spec.Name,
				SMs: int32(smsNow), Served: uint64(len(t.queue)), Est: tr.MeanSlowdown,
				Deserved: float64(t.deserved),
			})
		}
	}
	rec.IdleSMs = int32(f.Capacity() - allocated)
	f.rec = append(f.rec, rec)
}

// emitJob sends one fleet-job lifecycle event (nil-tracer safe).
func (f *Fleet) emitJob(j *job, verb string, gpu int) {
	if f.cfg.Tracer == nil {
		return
	}
	f.cfg.Tracer.Emit(telemetry.Event{
		Kind: telemetry.KindFleetJob, Cycle: uint64(f.interval),
		App: int32(j.tenant.index), SM: int32(gpu),
		Job: j.spec.ID, Note: verb, SMs: int32(j.spec.MinSMs),
	})
}
