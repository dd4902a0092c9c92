// Package telemetry is the observability layer of the reproduction: a
// structured, ring-buffered event tracer for the simulation engine, the DASE
// estimator internals and the daemon's job lifecycle, its one wire format
// (NDJSON, written by WriteNDJSON and read back by ReadNDJSONStrict), and a
// unified metrics registry with Prometheus text exposition.
//
// The tracer follows the same discipline as sim.WithInvariantChecks: it is
// strictly observation-only (emitting events never changes simulation
// results — the determinism goldens are byte-identical with tracing on), and
// when disabled the instrumented hot paths pay exactly one nil check per
// site. Events are fixed-size structs copied into a ring that grows by
// doubling up to its capacity, so a tracer that sees few events stays small
// and enabled tracing allocates only on those few doublings, never per
// event; when the ring fills, the oldest events are overwritten and counted
// as dropped.
package telemetry

import "sync"

// Kind identifies an event type. The taxonomy covers the three instrumented
// layers: the cycle engine (interval snapshots, SM drain/migration), the
// schedulers (per-app DASE internals, partition-search decisions), and the
// daemon (job lifecycle spans).
type Kind uint8

const (
	// KindInterval is one application's view of one estimation interval
	// (engine layer): Cycle, App, SMs, Alpha, BLP, Served.
	KindInterval Kind = iota + 1
	// KindSMDrain marks an SM beginning to drain toward a new owner; App is
	// the owner being drained away.
	KindSMDrain
	// KindSMAssign marks a drained SM being handed to App.
	KindSMAssign
	// KindDASEApp is the per-app DASE breakdown for one interval (scheduler
	// layer): Alpha, BLP, TimeBank/TimeRow/TimeLLC, MBB verdict, and the
	// estimated all-SM slowdown in Est.
	KindDASEApp
	// KindSchedDecision records one DASE-Fair partition-search outcome: the
	// current and best candidate estimated unfairness, the winning
	// allocation, and whether the policy actually re-partitioned (Realloc).
	KindSchedDecision
	// KindActual records an application's measured whole-run slowdown, the
	// ground truth the per-interval estimates are judged against.
	KindActual
	// KindJobQueued through KindJobDone are the daemon's job lifecycle
	// (wall-clock timestamps in Wall).
	KindJobQueued
	KindJobStarted
	KindJobDone
	// KindFleetJob is one fleet-job lifecycle transition (fleet layer):
	// Note carries the verb (arrive/place/done/reject/cancel), Job the job
	// id, App the tenant index, SM the GPU id (-1 when not placed), SMs the
	// job's SM demand or assignment, Cycle the scheduling interval.
	KindFleetJob
	// KindFleetInterval is one tenant's view of one fleet scheduling
	// interval: App the tenant index, Note the tenant name, SMs the SMs
	// allocated fleet-wide this interval, Served the tenant's queued job
	// count, Est the tenant's mean DASE-estimated slowdown across its
	// running jobs, Deserved the tenant's deserved SM share, Cycle the
	// scheduling interval.
	KindFleetInterval
)

// kindNames maps Kind to its wire name, the NDJSON "kind" field.
var kindNames = map[Kind]string{
	KindInterval:      "interval",
	KindSMDrain:       "sm.drain",
	KindSMAssign:      "sm.assign",
	KindDASEApp:       "dase.app",
	KindSchedDecision: "sched.decision",
	KindActual:        "slowdown.actual",
	KindJobQueued:     "job.queued",
	KindJobStarted:    "job.started",
	KindJobDone:       "job.done",
	KindFleetJob:      "fleet.job",
	KindFleetInterval: "fleet.interval",
}

// String returns the Kind's wire name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// KindFromString is String's inverse; unknown names return 0.
func KindFromString(s string) Kind {
	for k, n := range kindNames {
		if n == s {
			return k
		}
	}
	return 0
}

// MaxApps bounds the allocation array carried by scheduler-decision events
// (spatial multitasking concurrency in the paper tops out at 4 apps).
const MaxApps = 8

// Event is one trace record. It is a flat union over all kinds so the ring
// buffer holds fixed-size values: each Kind documents which fields it sets,
// and unset fields are zero (App and SM use -1 for "not applicable"). The
// struct is copied by value into the ring; emitting allocates nothing.
type Event struct {
	Kind Kind
	Seq  uint64 // per-tracer sequence number, assigned by Emit
	// Cycle is the simulation-cycle timestamp (engine and scheduler events).
	Cycle uint64
	// Wall is the wall-clock timestamp in Unix nanoseconds (daemon events).
	Wall int64
	App  int32 // application index, -1 when not app-scoped
	SM   int32 // SM id, -1 when not SM-scoped

	// Job and Note carry small strings: the job id for lifecycle events; a
	// policy name, terminal status, or error summary in Note.
	Job  string
	Note string

	// DASE internals (KindDASEApp) and interval counters (KindInterval).
	Alpha    float64
	BLP      float64
	TimeBank float64
	TimeRow  float64
	TimeLLC  float64
	MBB      bool
	Est      float64 // estimated all-SM slowdown
	Actual   float64 // measured slowdown (KindActual)
	Served   uint64
	SMs      int32

	// Partition-search outcome (KindSchedDecision).
	CurScore  float64
	BestScore float64
	NApps     int32
	Alloc     [MaxApps]int32
	Realloc   bool

	// Daemon lifecycle detail (KindJobStarted/KindJobDone).
	Attempt  int32
	CacheHit bool

	// Deserved is the tenant's deserved SM share (KindFleetInterval).
	Deserved float64
}

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity: 64Ki events keeps ~20 full DASE-Fair intervals of a 4-app run
// with room to spare, at about 15 MB.
const DefaultCapacity = 1 << 16

// Tracer is a bounded, concurrency-safe event ring. The zero value is not
// usable; construct with New. A nil *Tracer is the disabled tracer: Emit on
// nil is safe (and instrumentation sites additionally guard with a nil check
// so disabled tracing costs nothing beyond that check).
type Tracer struct {
	mu       sync.Mutex
	buf      []Event // grows on demand; len(buf) <= capacity
	capacity int
	total    uint64 // events ever emitted; once full, buf index = (total-1) % capacity
}

// New builds a tracer retaining the most recent capacity events
// (DefaultCapacity when capacity <= 0). The ring is allocated as events
// arrive, not up front.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: capacity}
}

// Emit appends one event, overwriting the oldest when the ring is full, and
// assigns its sequence number. Safe on a nil tracer and for concurrent use.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e.Seq = t.total
	if len(t.buf) < t.capacity {
		if len(t.buf) == cap(t.buf) {
			// Double, clamped so a full ring holds exactly capacity events.
			grown := make([]Event, len(t.buf), min(max(2*cap(t.buf), 8), t.capacity))
			copy(grown, t.buf)
			t.buf = grown
		}
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.total%uint64(t.capacity)] = e
	}
	t.total++
	t.mu.Unlock()
}

// Len returns how many events the ring currently retains.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns how many events were ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// Events returns a copy of the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.buf))
	if len(t.buf) < t.capacity {
		copy(out, t.buf)
		return out
	}
	// Full ring: the oldest event sits right after the newest.
	head := int(t.total % uint64(t.capacity))
	n := copy(out, t.buf[head:])
	copy(out[n:], t.buf[:head])
	return out
}
