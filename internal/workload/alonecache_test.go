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

func mustOpenAloneCache(t *testing.T, cfg config.Config, cycles uint64, dir string) *AloneCache {
	t.Helper()
	c, err := OpenAloneCache(cfg, cycles, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAloneCacheDirPersistsAndReloads: a baseline simulated through one
// cache is a directory hit for a fresh cache on the same directory, stored
// as one file named by its AloneKey; a config change is a new address.
func TestAloneCacheDirPersistsAndReloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	dir := t.TempDir()
	cfg := config.Default()
	p, _ := kernels.ByAbbr("QR")

	r1, err := mustOpenAloneCache(t, cfg, 20_000, dir).Get(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, AloneKey(cfg, p, 20_000, 1))); err != nil {
		t.Fatalf("baseline not stored under its AloneKey: %v", err)
	}

	c2 := mustOpenAloneCache(t, cfg, 20_000, dir)
	r2, err := c2.Get(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Apps[0].IPC != r2.Apps[0].IPC {
		t.Fatalf("reloaded IPC %v != original %v", r2.Apps[0].IPC, r1.Apps[0].IPC)
	}
	if st := c2.store.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("fresh cache stats = %+v, want one directory hit", st)
	}

	cfg2 := cfg
	cfg2.Mem.TFAW = 120
	if _, err := mustOpenAloneCache(t, cfg2, 20_000, dir).Get(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 2 {
		t.Fatalf("config change should create a second entry, got %v", files)
	}
}

func TestAloneCacheDirSurvivesCorruptEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	dir := t.TempDir()
	cfg := config.Default()
	p, _ := kernels.ByAbbr("QR")
	if err := os.WriteFile(filepath.Join(dir, AloneKey(cfg, p, 20_000, 1)), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := mustOpenAloneCache(t, cfg, 20_000, dir).Get(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Apps[0].Instructions == 0 {
		t.Fatal("recomputed result empty")
	}
}

// TestAloneCacheDirConcurrentGet has one kernel requested from many
// goroutines, as EvaluateAll does when a kernel appears in several jobs of a
// batch: it is simulated and persisted once, and every caller gets that
// result.
func TestAloneCacheDirConcurrentGet(t *testing.T) {
	dir := t.TempDir()
	p, _ := kernels.ByAbbr("QR")
	c := mustOpenAloneCache(t, config.Default(), 10_000, dir)
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

func TestOpenAloneCacheRejectsFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAloneCache(config.Default(), 10_000, 1, file); err == nil {
		t.Fatal("OpenAloneCache on a regular file succeeded")
	}
}
