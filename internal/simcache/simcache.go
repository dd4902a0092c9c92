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
// one runs the simulation and the rest wait for its result. Built with
// NewDir, it is also backed by a directory holding one file per key, so a
// result outlives the process that computed it and is shared by every
// process that uses the directory: cmd/experiments -cache-dir and
// dased -cache-dir read and write the same files.
package simcache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"dasesim/internal/config"
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
		// All fields are plain data; only a non-finite float in a profile
		// (which JSON-loaded catalogues cannot carry) makes Marshal fail.
		panic(fmt.Sprintf("simcache: key: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 // lookups served without simulating, from memory or the directory
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
// the simulation-service layer and the workload evaluation harness, and
// optionally backed by a directory (NewDir). Cached results are shared:
// callers must treat them as immutable. The zero value is not usable;
// construct with NewMemory or NewDir.
type Memory struct {
	mu      sync.Mutex
	entries map[string]*sim.Result
	order   []string // insertion order for FIFO eviction
	flights map[string]*flight
	max     int
	dir     string // "" keeps results in memory only

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

// NewDir builds a cache like NewMemory that is backed by dir (created if
// needed): a miss inside GetOrCompute's single flight first reads
// <dir>/<key>, and simulates only when that file is absent or fails its
// check; a computed result is written to <dir>/<key> before it is served.
// Keys must be file names, as Key's hex digests are.
func NewDir(maxEntries int, dir string) (*Memory, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	m := NewMemory(maxEntries)
	m.dir = dir
	return m, nil
}

// Get returns the result for key if it is resident in memory. It does not
// read the directory; GetOrCompute does.
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

// Put stores a computed result under key in memory.
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

// Peek reports whether key is resident in memory or has a file in the
// directory, without touching the hit/miss counters — the server's admission
// control uses it to tell cheap (already-cached) submissions from expensive
// ones when shedding load. It does not check the file: a damaged one is
// still recomputed by GetOrCompute.
func (m *Memory) Peek(key string) bool {
	m.mu.Lock()
	_, ok := m.entries[key]
	m.mu.Unlock()
	if !ok && m.dir != "" {
		_, err := os.Stat(filepath.Join(m.dir, key))
		ok = err == nil
	}
	return ok
}

// GetOrCompute returns the cached result for key, or produces (and caches)
// it: from the directory when it holds a valid entry, else by running
// compute. Concurrent calls for the same key produce it once; waiters
// observe the winner's result, or recompute themselves if the winner failed.
// A waiter whose ctx expires returns ctx.Err(). A failure to write the
// computed result to the directory is returned, and nothing is cached.
func (m *Memory) GetOrCompute(ctx context.Context, key string, compute func() (*sim.Result, error)) (*sim.Result, error) {
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
		m.mu.Unlock()

		// The cleanup must run even when compute panics (the server recovers
		// worker panics, and a later job may ask for the same key): the
		// flight is removed and its done channel closed with an error, so
		// waiters recompute instead of blocking forever on an abandoned
		// flight.
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
			r, err = m.fill(key, compute)
			panicked = false
		}()
		return r, err
	}
}

// fill produces key's result for its flight: read from the directory when a
// valid entry is there (a hit), else computed (a miss) and written to it.
func (m *Memory) fill(key string, compute func() (*sim.Result, error)) (*sim.Result, error) {
	r, ok := m.read(key)
	m.mu.Lock()
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	m.mu.Unlock()
	if ok {
		return r, nil
	}
	r, err := compute()
	if err == nil {
		err = m.write(key, r)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// entryMagic opens every directory entry. An entry is one header line,
// "<entryMagic> <key> <CRC32 (IEEE) of the payload as 8 hex digits>",
// then the payload: the result's JSON encoding, which holds no raw newline.
// A file that is torn, foreign, written for another key or not a result
// fails the check and is recomputed and overwritten.
const entryMagic = "simcache/1"

// entryHeader is the header line an entry for key with this payload carries,
// without its newline.
func entryHeader(key string, payload []byte) []byte {
	return fmt.Appendf(nil, "%s %s %08x", entryMagic, key, crc32.ChecksumIEEE(payload))
}

// read loads key's entry from the directory; ok is false without a
// directory or a valid entry.
func (m *Memory) read(key string) (r *sim.Result, ok bool) {
	if m.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(m.dir, key))
	if err != nil {
		return nil, false
	}
	header, payload, found := bytes.Cut(data, []byte{'\n'})
	if !found || !bytes.Equal(header, entryHeader(key, payload)) {
		return nil, false
	}
	r = new(sim.Result)
	if json.Unmarshal(payload, r) != nil {
		return nil, false
	}
	return r, true
}

// write stores r as key's entry: written to a temporary file in the
// directory, fsynced, then renamed over <dir>/<key>, so a reader sees the
// old entry, the new one or none, never a partial one. The directory itself
// is not fsynced: an entry lost to a power cut is only a miss.
func (m *Memory) write(key string, r *sim.Result) error {
	if m.dir == "" {
		return nil
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("simcache: encode %s: %w", key, err)
	}
	f, err := os.CreateTemp(m.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	data := append(append(entryHeader(key, payload), '\n'), payload...)
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(m.dir, key))
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: the write already failed
		return fmt.Errorf("simcache: write %s: %w", key, err)
	}
	return nil
}

// Stats reports effectiveness counters.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Entries: len(m.entries)}
}
