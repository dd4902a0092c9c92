package workload

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
)

// DiskCache wraps an AloneCache with a JSON-file layer so alone-run
// baselines survive across cmd/experiments invocations. Entries are keyed
// by kernel identity, run budget, seed, and a hash of the full GPU
// configuration, so a config change can never serve stale baselines.
type DiskCache struct {
	inner *AloneCache
	dir   string
	tag   string // config+budget hash embedded in file names
}

// NewDiskCache builds a cache persisting under dir (created if needed).
func NewDiskCache(cfg config.Config, cycles uint64, seed uint64, dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("workload: cache dir: %w", err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d|%d", cfg, cycles, seed)
	return &DiskCache{
		inner: NewAloneCache(cfg, cycles, seed),
		dir:   dir,
		tag:   fmt.Sprintf("%x", h.Sum64()),
	}, nil
}

func (d *DiskCache) path(p kernels.Profile) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", p)
	return filepath.Join(d.dir, fmt.Sprintf("alone-%s-%x-%s.json", p.Abbr, h.Sum64(), d.tag))
}

// Get returns the alone result, loading it from disk if present, simulating
// and persisting it otherwise.
func (d *DiskCache) Get(p kernels.Profile) (*sim.Result, error) {
	return d.GetContext(context.Background(), p)
}

// GetContext is Get with cancellation of the backing simulation.
func (d *DiskCache) GetContext(ctx context.Context, p kernels.Profile) (*sim.Result, error) {
	// Fast path: in-memory.
	if r, ok := d.inner.store.Get(d.inner.key(p)); ok {
		return r, nil
	}

	path := d.path(p)
	if data, err := os.ReadFile(path); err == nil {
		var r sim.Result
		if err := json.Unmarshal(data, &r); err == nil {
			d.inner.store.Put(d.inner.key(p), &r)
			return &r, nil
		}
		// Corrupt entry: fall through and recompute.
	}

	r, err := d.inner.GetContext(ctx, p)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("workload: marshal alone result: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, fmt.Errorf("workload: persist alone result: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("workload: persist alone result: %w", err)
	}
	return r, nil
}
