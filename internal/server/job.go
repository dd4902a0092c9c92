package server

import (
	"context"
	"fmt"
	"time"

	"dasesim/internal/kernels"
	"dasesim/internal/sim"
	"dasesim/internal/simcache"
	"dasesim/internal/telemetry"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
	// StatusForwarded marks a queued job given away to another cluster node
	// (work-stealing): terminal here, because the work now lives — and is
	// journaled — under a new ID on the stealing node.
	StatusForwarded Status = "forwarded"
)

// terminal reports whether a job in this state will never run again (on this
// node — a forwarded job runs on the node named by ForwardedTo).
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled || s == StatusForwarded
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	// Kernels are Table III abbreviations (or custom-catalogue abbrs).
	Kernels []string `json:"kernels"`
	// Alloc assigns SMs per kernel; empty means an even split. Ignored in
	// alone mode (the kernel gets every SM).
	Alloc []int `json:"alloc,omitempty"`
	// Cycles is the simulation budget (server default when 0; capped by the
	// server's max).
	Cycles uint64 `json:"cycles,omitempty"`
	// Seed is the simulation seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Policy selects the SM scheduler for shared mode: "even" (default),
	// "fair" (DASE-Fair), or "perf" (DASE-Perf).
	Policy string `json:"policy,omitempty"`
	// Mode is "shared" (default) or "alone" (single kernel on all SMs).
	Mode string `json:"mode,omitempty"`
	// Slowdowns additionally computes each application's actual slowdown
	// against its cached alone baseline, plus unfairness and harmonic
	// speedup.
	Slowdowns bool `json:"slowdowns,omitempty"`
	// TimeoutMS bounds this job's wall time; the server's job timeout still
	// applies as a ceiling.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobResult is the payload of a finished job.
type JobResult struct {
	// Sim is the raw simulation result, exactly what the equivalent direct
	// sim.RunShared / sim.RunAlone call returns.
	Sim *sim.Result `json:"sim"`
	// Slowdowns, AloneIPC, Unfairness and HarmonicSpeedup are present when
	// the request asked for slowdowns.
	Slowdowns       []float64 `json:"slowdowns,omitempty"`
	AloneIPC        []float64 `json:"alone_ipc,omitempty"`
	Unfairness      float64   `json:"unfairness,omitempty"`
	HarmonicSpeedup float64   `json:"harmonic_speedup,omitempty"`
}

// Job is one tracked submission. Fields other than ID are guarded by the
// server's mutex; done is closed exactly once on the transition to a
// terminal status.
type Job struct {
	ID      string
	Request JobRequest

	Status      Status
	Error       string
	LastError   string // most recent transient error, kept across retries
	Attempts    int    // run attempts so far (1 on the first try)
	Result      *JobResult
	CacheHit    bool
	ForwardedTo string // stealing node's ID when Status is StatusForwarded

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time

	plan   plan
	cancel context.CancelFunc
	done   chan struct{}
	// tracer is non-nil when the server traces jobs. It is assigned once at
	// submission (or replay) before the job is visible and is internally
	// concurrency-safe, so reading it needs no lock.
	tracer *telemetry.Tracer
	// span is the job's trace context, minted at submission (a child of the
	// client's or forwarding node's span when the request carried one) and
	// immutable afterwards, so reading it needs no lock either.
	span telemetry.SpanContext
}

// emit stamps the job's span onto e and records it; nil-tracer safe and
// allocation-free, so it is unconditional at every lifecycle site.
func (j *Job) emit(node string, e telemetry.Event) {
	e.SetSpan(j.span)
	e.Node = node
	j.tracer.Emit(e)
}

// JobView is the JSON representation of a job returned by the API.
type JobView struct {
	ID          string     `json:"id"`
	Status      Status     `json:"status"`
	Request     JobRequest `json:"request"`
	Error       string     `json:"error,omitempty"`
	LastError   string     `json:"last_error,omitempty"`
	Attempts    int        `json:"attempts"`
	CacheHit    bool       `json:"cache_hit"`
	ForwardedTo string     `json:"forwarded_to,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	WallMS      float64    `json:"wall_ms,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// view renders the job; the caller holds the server mutex.
func (j *Job) view() JobView {
	v := JobView{
		ID:          j.ID,
		Status:      j.Status,
		Request:     j.Request,
		Error:       j.Error,
		LastError:   j.LastError,
		Attempts:    j.Attempts,
		CacheHit:    j.CacheHit,
		ForwardedTo: j.ForwardedTo,
		SubmittedAt: j.SubmittedAt,
		Result:      j.Result,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		v.StartedAt = &t
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		v.FinishedAt = &t
		if !j.StartedAt.IsZero() {
			v.WallMS = float64(j.FinishedAt.Sub(j.StartedAt)) / float64(time.Millisecond)
		}
	}
	return v
}

// plan is a validated, resolved job: profiles looked up, allocation and
// budget defaulted and bounds-checked. Building the plan at submission time
// means a malformed request fails with 400 instead of becoming a failed job.
type plan struct {
	profiles []kernels.Profile
	alloc    []int
	cycles   uint64
	seed     uint64
	policy   string // "even" | "fair" | "perf"
	mode     string // "shared" | "alone"
	slowdown bool
	timeout  time.Duration
	// key is the main simulation's content address: the result-cache key,
	// the cluster's routing key and the shed check's lookup, computed once.
	key string
}

// variant is the cache-key run-mode tag for the plan's main simulation.
func (p *plan) variant() string {
	if p.mode == "alone" {
		return "alone"
	}
	return "shared/" + p.policy
}

// buildPlan validates a request against the server's catalogue and limits.
func (s *Server) buildPlan(req JobRequest) (plan, error) {
	p := plan{
		cycles:   req.Cycles,
		seed:     req.Seed,
		policy:   req.Policy,
		mode:     req.Mode,
		slowdown: req.Slowdowns,
		timeout:  s.opts.JobTimeout,
	}
	if len(req.Kernels) == 0 {
		return p, fmt.Errorf("no kernels given")
	}
	for _, abbr := range req.Kernels {
		prof, ok := s.lookup(abbr)
		if !ok {
			return p, fmt.Errorf("unknown kernel %q", abbr)
		}
		p.profiles = append(p.profiles, prof)
	}
	if p.cycles == 0 {
		p.cycles = s.opts.DefaultCycles
	}
	if p.cycles > s.opts.MaxCycles {
		return p, fmt.Errorf("cycles %d exceeds server maximum %d", p.cycles, s.opts.MaxCycles)
	}
	if p.seed == 0 {
		p.seed = 1
	}
	switch p.mode {
	case "", "shared":
		p.mode = "shared"
	case "alone":
		if len(p.profiles) != 1 {
			return p, fmt.Errorf("alone mode takes exactly one kernel, got %d", len(p.profiles))
		}
		if req.Slowdowns {
			return p, fmt.Errorf("slowdowns are meaningless in alone mode")
		}
	default:
		return p, fmt.Errorf("unknown mode %q (shared | alone)", p.mode)
	}
	switch p.policy {
	case "":
		p.policy = "even"
	case "even", "fair", "perf":
	default:
		return p, fmt.Errorf("unknown policy %q (even | fair | perf)", p.policy)
	}
	nsm := s.opts.Cfg.NumSMs
	if p.mode == "alone" {
		p.alloc = []int{nsm}
	} else if len(req.Alloc) == 0 {
		p.alloc = sim.EvenAllocation(nsm, len(p.profiles))
	} else {
		if len(req.Alloc) != len(p.profiles) {
			return p, fmt.Errorf("alloc has %d entries for %d kernels", len(req.Alloc), len(p.profiles))
		}
		total := 0
		for _, n := range req.Alloc {
			if n < 0 {
				return p, fmt.Errorf("negative SM allocation %d", n)
			}
			total += n
		}
		if total == 0 || total > nsm {
			return p, fmt.Errorf("allocation %v must use between 1 and %d SMs", req.Alloc, nsm)
		}
		p.alloc = append([]int(nil), req.Alloc...)
	}
	if req.TimeoutMS > 0 {
		d := time.Duration(req.TimeoutMS) * time.Millisecond
		if d < p.timeout {
			p.timeout = d
		}
	}
	p.key = simcache.Key(s.opts.Cfg, p.profiles, p.alloc, p.cycles, p.seed, p.variant())
	return p, nil
}
