package workload

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/simcache"
)

// storeJob is QR+BG at the even split, the job the store tests vary.
func storeJob() Job {
	qr, _ := kernels.ByAbbr("QR")
	bg, _ := kernels.ByAbbr("BG")
	return Job{Combo: Combo{Profiles: []kernels.Profile{qr, bg}}, Alloc: []int{8, 8}}
}

// TestEvaluateStoreKeepsInputsApart evaluates jobs that differ from a first
// one in a single input on one store: each difference simulates exactly the
// runs it changes, so a key that dropped the allocation, a profile field,
// the cycles, the seed, the configuration, the alone budget or the
// static/epoch variant would serve a stored run and fail here. Repeating the first job
// simulates nothing.
func TestEvaluateStoreKeepsInputsApart(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 5_000
	base := Options{Cfg: cfg, SharedCycles: 10_000, Seed: 1}
	store := simcache.NewMemory(0)
	simulated := func() uint64 { return store.Stats().Misses }
	if _, err := Evaluate(context.Background(), base, storeJob(), store); err != nil {
		t.Fatal(err)
	}
	if n := simulated(); n != 3 {
		t.Fatalf("first job simulated %d runs, want the static run and 2 alone runs", n)
	}

	tfaw := cfg
	tfaw.Mem.TFAW = 120
	for _, tc := range []struct {
		name string
		opt  func(*Options)
		job  func(*Job)
		want uint64 // runs the difference simulates
	}{
		{"same inputs", nil, nil, 0},
		{"allocation", nil, func(j *Job) { j.Alloc = []int{6, 10} }, 1},
		{"profile", nil, func(j *Job) {
			qr := j.Combo.Profiles[0]
			qr.MemFrac *= 2
			j.Combo.Profiles = []kernels.Profile{qr, j.Combo.Profiles[1]}
		}, 2},
		{"cycles", func(o *Options) { o.SharedCycles = 15_000 }, nil, 3},
		{"alone cycles", func(o *Options) { o.AloneCycles = 12_000 }, nil, 2},
		{"seed", func(o *Options) { o.Seed = 2 }, nil, 3},
		{"config", func(o *Options) { o.Cfg = tfaw }, nil, 3},
		{"epoch run", func(o *Options) { o.Epochs = true }, nil, 1},
	} {
		opt, job := base, storeJob()
		if tc.opt != nil {
			tc.opt(&opt)
		}
		if tc.job != nil {
			tc.job(&job)
		}
		before := simulated()
		if _, err := Evaluate(context.Background(), opt, job, store); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := simulated() - before; got != tc.want {
			t.Errorf("%s: simulated %d runs, want %d", tc.name, got, tc.want)
		}
	}
}

// TestEvaluateAllIdenticalJobsSimulateOnce has four identical static jobs
// evaluated concurrently on one store: the shared run and each alone run is
// simulated once, and every job reads the same stored result. It stays in
// the -short suite, so the race detector sees the store's single flight
// under EvaluateAll's pool.
func TestEvaluateAllIdenticalJobsSimulateOnce(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 5_000
	opt := Options{Cfg: cfg, SharedCycles: 10_000, Seed: 1}
	jobs := []Job{storeJob(), storeJob(), storeJob(), storeJob()}
	store := simcache.NewMemory(0)
	evals, err := EvaluateAll(context.Background(), opt, jobs, store)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Misses != 3 || st.Entries != 3 {
		t.Fatalf("store stats = %+v, want one shared and 2 alone simulations", st)
	}
	for i, ev := range evals {
		if ev.Shared != evals[0].Shared {
			t.Errorf("job %d read a different shared result", i)
		}
	}
}

// TestEvaluateDirStoreReloads: every run one Evaluate stored on a directory
// is a disk hit for a fresh store on the same directory, and the second
// evaluation equals the first.
func TestEvaluateDirStoreReloads(t *testing.T) {
	dir := t.TempDir()
	cfg := config.Default()
	cfg.IntervalCycles = 5_000
	opt := Options{Cfg: cfg, SharedCycles: 10_000, Seed: 1, Epochs: true}
	var evals [2]*Eval
	var stats [2]simcache.Stats
	for i := range evals {
		store, err := simcache.NewDir(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		if evals[i], err = Evaluate(context.Background(), opt, storeJob(), store); err != nil {
			t.Fatal(err)
		}
		stats[i] = store.Stats()
	}
	if stats[0].Misses != 4 || stats[1].Misses != 0 || stats[1].Hits != 4 {
		t.Fatalf("store stats %+v then %+v, want 4 simulated runs, then 4 disk hits", stats[0], stats[1])
	}
	qr := storeJob().Combo.Profiles[0]
	if _, err := os.Stat(filepath.Join(dir, AloneKey(cfg, qr, 10_000, 1))); err != nil {
		t.Errorf("alone run not stored under its AloneKey: %v", err)
	}
	if !reflect.DeepEqual(evals[0], evals[1]) {
		t.Errorf("reloaded evaluation differs:\n got %+v\nwant %+v", evals[1], evals[0])
	}
}
