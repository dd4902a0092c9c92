// Package simcache provides a content-addressed, concurrency-safe cache for
// simulation results. Simulations are deterministic functions of (GPU
// configuration, kernel profiles, SM allocation, cycle budget, seed, run
// variant), so a result computed once can be served to every later query
// with the same key — the server uses this to answer repeated job
// submissions without re-simulating, and workload.AloneCache uses it to
// share the 15 alone baselines across the 105 pair evaluations.
//
// The Memory implementation additionally deduplicates in-flight computation:
// when several goroutines ask for the same missing key concurrently, exactly
// one runs the simulation and the rest wait for its result.
package simcache

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"dasesim/internal/config"
	"dasesim/internal/faults"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
)

// Key derives the content address of one simulation run. Variant
// distinguishes run modes that share the same inputs but execute differently
// (e.g. "alone", "shared/even", "shared/fair", "shared/epochs"). The key is
// stable across processes: it hashes the canonical JSON encoding of the
// inputs, with the configuration pre-hashed by config.Fingerprint.
func Key(cfg config.Config, profiles []kernels.Profile, alloc []int, cycles, seed uint64, variant string) string {
	payload := struct {
		Config   string
		Profiles []kernels.Profile
		Alloc    []int
		Cycles   uint64
		Seed     uint64
		Variant  string
	}{cfg.Fingerprint(), profiles, alloc, cycles, seed, variant}
	data, err := json.Marshal(payload)
	if err != nil {
		// All fields are plain data; Marshal cannot fail.
		panic(fmt.Sprintf("simcache: key: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 // lookups served without simulating
	Misses    uint64 // lookups that had to simulate
	Evictions uint64 // entries dropped by the size bound
	Entries   int    // current resident results
}

// flight is one in-progress computation other goroutines can wait on.
type flight struct {
	done chan struct{}
	r    *sim.Result
	err  error
}

// Memory is a bounded in-memory result cache with FIFO eviction, shared by
// the simulation-service layer and the workload evaluation harness. Cached
// results are shared: callers must treat them as immutable. The zero value
// is not usable; construct with NewMemory.
type Memory struct {
	mu      sync.Mutex
	entries map[string]*sim.Result
	order   []string // insertion order for FIFO eviction
	flights map[string]*flight
	max     int

	hits, misses, evictions uint64
}

// DefaultMaxEntries bounds a Memory cache when NewMemory is given a
// non-positive capacity. A full result with snapshots is O(10 KB), so the
// default caps resident results around a few MB.
const DefaultMaxEntries = 512

// NewMemory builds an empty cache holding at most maxEntries results
// (DefaultMaxEntries when maxEntries <= 0).
func NewMemory(maxEntries int) *Memory {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Memory{
		entries: map[string]*sim.Result{},
		flights: map[string]*flight{},
		max:     maxEntries,
	}
}

// Get returns the cached result for key, if present.
func (m *Memory) Get(key string) (*sim.Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.entries[key]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return r, ok
}

// Put stores a computed result under key.
func (m *Memory) Put(key string, r *sim.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.put(key, r)
}

// put stores r under key; the caller holds m.mu.
func (m *Memory) put(key string, r *sim.Result) {
	if _, ok := m.entries[key]; ok {
		m.entries[key] = r
		return
	}
	for len(m.entries) >= m.max && len(m.order) > 0 {
		oldest := m.order[0]
		m.order = m.order[1:]
		if _, ok := m.entries[oldest]; ok {
			delete(m.entries, oldest)
			m.evictions++
		}
	}
	m.entries[key] = r
	m.order = append(m.order, key)
}

// PutIfAbsent stores r under key only when the key is not already resident,
// reporting whether it inserted. Results are deterministic functions of the
// key, so a lost race changes nothing — but the report lets callers count
// duplicates, which is how the cluster layer measures how much redundant
// work a partition caused when the halves reconcile.
func (m *Memory) PutIfAbsent(key string, r *sim.Result) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return false
	}
	m.put(key, r)
	return true
}

// Peek reports whether key is resident without touching the hit/miss
// counters — the server's admission control uses it to tell cheap
// (already-cached) submissions from expensive ones when shedding load.
func (m *Memory) Peek(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[key]
	return ok
}

// GetOrCompute returns the cached result for key, or runs compute to
// produce (and cache) it. Concurrent calls for the same key run compute
// once; waiters observe the winner's result, or recompute themselves if the
// winner failed. A waiter whose ctx expires returns ctx.Err().
func (m *Memory) GetOrCompute(ctx context.Context, key string, compute func() (*sim.Result, error)) (*sim.Result, error) {
	if err := faults.FireCtx(ctx, "simcache.get"); err != nil {
		return nil, err
	}
	for {
		m.mu.Lock()
		if r, ok := m.entries[key]; ok {
			m.hits++
			m.mu.Unlock()
			return r, nil
		}
		if fl, ok := m.flights[key]; ok {
			m.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err == nil {
					// Served by the winner's simulation: a hit for us.
					m.mu.Lock()
					m.hits++
					m.mu.Unlock()
					return fl.r, nil
				}
				// The winner failed (possibly its own cancellation);
				// retry with our own context and compute.
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		fl := &flight{done: make(chan struct{})}
		m.flights[key] = fl
		m.misses++
		m.mu.Unlock()

		// The cleanup must run even when compute panics (the server recovers
		// worker panics and may retry the same key): the flight is removed
		// and its done channel closed with an error, so waiters recompute
		// instead of blocking forever on an abandoned flight.
		var (
			r        *sim.Result
			err      error
			panicked = true
		)
		func() {
			defer func() {
				m.mu.Lock()
				delete(m.flights, key)
				if !panicked && err == nil {
					m.put(key, r)
				}
				m.mu.Unlock()
				fl.r, fl.err = r, err
				if panicked && fl.err == nil {
					fl.err = errors.New("simcache: compute panicked")
				}
				close(fl.done)
			}()
			r, err = compute()
			panicked = false
		}()
		return r, err
	}
}

// Stats reports effectiveness counters.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Entries: len(m.entries)}
}
