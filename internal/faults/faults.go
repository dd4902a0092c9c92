// Package faults is a deterministic, stdlib-only fault-injection registry.
// Production code declares named injection points (Fire / FireCtx calls) at
// the places where the system talks to something that can fail — the
// simulation step loop, the result cache, the job journal, the worker loop —
// and tests arm those points to return errors, panic, or sleep past
// deadlines with a configurable probability drawn from a seeded PRNG.
//
// When nothing is armed the injection points are a single atomic pointer
// load, so they are free to leave in production builds.
//
// Usage in a test:
//
//	reg := faults.New(42)
//	reg.Arm(faults.Spec{Point: "server.worker", Mode: faults.ModeError, Count: 1})
//	faults.Activate(reg)
//	defer faults.Deactivate()
//
// The named points wired through this repository are listed by Points.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by an armed ModeError point.
// Callers that retry on transient failures treat it as retryable.
var ErrInjected = errors.New("injected fault")

// Point describes one injection point wired through the repository.
type Point struct {
	Name string
	Doc  string
}

// Points returns every injection-point name wired through this repository,
// in stable order. The faults test suite iterates this list so a new point
// cannot ship without error/panic/sleep coverage.
func Points() []Point {
	return []Point{
		{"sim.step", "the simulation chunk loop in (*sim.GPU).RunContext"},
		{"simcache.get", "(*simcache.Memory).GetOrCompute, before lookup"},
		{"journal.append", "(*journal.Journal).Append, before the write"},
		{"journal.dirsync", "the parent-directory fsync after journal compaction renames"},
		{"server.worker", "the job runner, after the queued→running transition"},
	}
}

// Mode is what an armed injection point does when it triggers.
type Mode int

const (
	// ModeError makes Fire return Spec.Err (ErrInjected by default).
	ModeError Mode = iota
	// ModePanic makes Fire panic, exercising recover paths.
	ModePanic
	// ModeSleep makes Fire sleep for Spec.Delay (or until ctx expires,
	// returning ctx.Err()), exercising deadline-overrun paths.
	ModeSleep
)

// Spec arms one injection point.
type Spec struct {
	// Point is the injection-point name, e.g. "journal.append".
	Point string
	// Mode selects the failure behaviour.
	Mode Mode
	// P is the trigger probability per Fire call; values outside (0,1)
	// mean "always trigger".
	P float64
	// Count caps how many times this spec triggers; 0 means unlimited.
	Count int
	// Err overrides ErrInjected for ModeError.
	Err error
	// Delay is the ModeSleep duration.
	Delay time.Duration
}

// armed is one spec plus its trigger bookkeeping.
type armed struct {
	spec Spec
	hits int
}

// Registry holds armed injection points. All methods are safe for concurrent
// use; the trigger sequence is a deterministic function of the seed and the
// order of Fire calls.
type Registry struct {
	mu    sync.Mutex
	rng   *rand.Rand
	specs map[string][]*armed
	fired map[string]uint64
}

// New builds an empty registry whose probabilistic triggers draw from a PRNG
// seeded with seed.
func New(seed uint64) *Registry {
	return &Registry{
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		specs: map[string][]*armed{},
		fired: map[string]uint64{},
	}
}

// Arm registers a spec; several specs may share a point and are evaluated in
// arming order on each Fire.
func (r *Registry) Arm(s Spec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.specs[s.Point] = append(r.specs[s.Point], &armed{spec: s})
}

// Disarm removes every spec armed at point.
func (r *Registry) Disarm(point string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.specs, point)
}

// Fired reports how many times point has triggered (any mode).
func (r *Registry) Fired(point string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired[point]
}

// action is a decision taken under the lock and executed outside it.
type action struct {
	mode  Mode
	err   error
	delay time.Duration
	point string
}

// fire evaluates the specs armed at point and performs at most one action.
func (r *Registry) fire(ctx context.Context, point string) error {
	r.mu.Lock()
	var act *action
	for _, a := range r.specs[point] {
		if a.spec.Count > 0 && a.hits >= a.spec.Count {
			continue
		}
		if p := a.spec.P; p > 0 && p < 1 && r.rng.Float64() >= p {
			continue
		}
		a.hits++
		r.fired[point]++
		act = &action{mode: a.spec.Mode, err: a.spec.Err, delay: a.spec.Delay, point: point}
		break
	}
	r.mu.Unlock()
	if act == nil {
		return nil
	}
	switch act.mode {
	case ModePanic:
		panic(fmt.Sprintf("faults: injected panic at %s", act.point))
	case ModeSleep:
		t := time.NewTimer(act.delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	default:
		err := act.err
		if err == nil {
			err = ErrInjected
		}
		return fmt.Errorf("faults: %s: %w", act.point, err)
	}
}

// active is the process-wide registry consulted by Fire; nil means every
// injection point is a no-op.
var active atomic.Pointer[Registry]

// Activate installs r as the process-wide registry.
func Activate(r *Registry) { active.Store(r) }

// Deactivate removes the process-wide registry, disabling all points.
func Deactivate() { active.Store(nil) }

// Fire triggers the injection point with no deadline (ModeSleep sleeps its
// full delay). It returns nil when nothing is armed.
func Fire(point string) error { return FireCtx(context.Background(), point) }

// FireCtx triggers the injection point; a ModeSleep trigger returns ctx.Err()
// early when ctx expires mid-sleep. It returns nil when nothing is armed.
func FireCtx(ctx context.Context, point string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.fire(ctx, point)
}
