package simcache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/faults"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
)

func testProfiles() []kernels.Profile {
	a, _ := kernels.ByAbbr("SB")
	b, _ := kernels.ByAbbr("SD")
	return []kernels.Profile{a, b}
}

func TestKeyStableAndSensitive(t *testing.T) {
	cfg := config.Default()
	ps := testProfiles()
	base := Key(cfg, ps, []int{8, 8}, 100_000, 1, "shared/even")
	if base != Key(cfg, ps, []int{8, 8}, 100_000, 1, "shared/even") {
		t.Fatal("key not deterministic")
	}
	variants := map[string]string{
		"alloc":   Key(cfg, ps, []int{4, 12}, 100_000, 1, "shared/even"),
		"cycles":  Key(cfg, ps, []int{8, 8}, 200_000, 1, "shared/even"),
		"seed":    Key(cfg, ps, []int{8, 8}, 100_000, 2, "shared/even"),
		"variant": Key(cfg, ps, []int{8, 8}, 100_000, 1, "shared/fair"),
	}
	cfg2 := cfg
	cfg2.NumMCs = 8
	variants["config"] = Key(cfg2, ps, []int{8, 8}, 100_000, 1, "shared/even")
	ps2 := testProfiles()
	ps2[0].MemFrac *= 2
	variants["profile"] = Key(cfg, ps2, []int{8, 8}, 100_000, 1, "shared/even")
	for name, k := range variants {
		if k == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

func TestConfigFingerprintStable(t *testing.T) {
	cfg := config.Default()
	if cfg.Fingerprint() != config.Default().Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	cfg2 := cfg
	cfg2.IntervalCycles++
	if cfg.Fingerprint() == cfg2.Fingerprint() {
		t.Fatal("fingerprint insensitive to a field change")
	}
}

func TestMemoryGetPutStats(t *testing.T) {
	m := NewMemory(4)
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	r := &sim.Result{Cycles: 7}
	m.Put("a", r)
	got, ok := m.Get("a")
	if !ok || got != r {
		t.Fatal("stored result not returned")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemoryEviction(t *testing.T) {
	m := NewMemory(2)
	for i := 0; i < 3; i++ {
		m.Put(fmt.Sprintf("k%d", i), &sim.Result{Cycles: uint64(i)})
	}
	if _, ok := m.Get("k0"); ok {
		t.Fatal("oldest entry survived beyond the bound")
	}
	if _, ok := m.Get("k2"); !ok {
		t.Fatal("newest entry evicted")
	}
	if st := m.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetOrComputeSingleFlight(t *testing.T) {
	m := NewMemory(8)
	var computes atomic.Int64
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*sim.Result, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := m.GetOrCompute(context.Background(), "k", func() (*sim.Result, error) {
				computes.Add(1)
				<-release
				return &sim.Result{Cycles: 42}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	// Let the goroutines pile onto the flight, then release the winner.
	for m.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for _, r := range results {
		if r == nil || r.Cycles != 42 {
			t.Fatalf("waiter saw %+v", r)
		}
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	m := NewMemory(8)
	boom := errors.New("boom")
	_, err := m.GetOrCompute(context.Background(), "k", func() (*sim.Result, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	r, err := m.GetOrCompute(context.Background(), "k", func() (*sim.Result, error) {
		return &sim.Result{Cycles: 1}, nil
	})
	if err != nil || r.Cycles != 1 {
		t.Fatalf("recovery compute: %v %+v", err, r)
	}
}

func TestGetOrComputeWaiterCancellation(t *testing.T) {
	m := NewMemory(8)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = m.GetOrCompute(context.Background(), "k", func() (*sim.Result, error) {
			close(started)
			<-release
			return &sim.Result{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.GetOrCompute(ctx, "k", func() (*sim.Result, error) {
		t.Error("waiter must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	close(release)
}

// TestPutIfAbsent checks insert-vs-duplicate reporting and that a duplicate
// leaves the resident result in place.
func TestPutIfAbsent(t *testing.T) {
	m := NewMemory(4)
	a, b := &sim.Result{Cycles: 1}, &sim.Result{Cycles: 2}
	if !m.PutIfAbsent("k", a) {
		t.Fatal("first PutIfAbsent reported duplicate")
	}
	if m.PutIfAbsent("k", b) {
		t.Fatal("second PutIfAbsent reported insert")
	}
	if got, ok := m.Get("k"); !ok || got != a {
		t.Fatal("duplicate PutIfAbsent replaced the resident result")
	}
}

func TestGetOrComputeHitSkipsCompute(t *testing.T) {
	m := NewMemory(4)
	want := &sim.Result{Cycles: 5}
	m.Put("k", want)
	r, err := m.GetOrCompute(context.Background(), "k", func() (*sim.Result, error) {
		t.Error("compute ran for a resident key")
		return nil, nil
	})
	if err != nil || r != want {
		t.Fatalf("got %+v, %v; want the resident result", r, err)
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want one hit", st)
	}
}

func TestPeekLeavesCountersAlone(t *testing.T) {
	m := NewMemory(4)
	if m.Peek("k") {
		t.Fatal("Peek found a key in an empty cache")
	}
	m.Put("k", &sim.Result{})
	if !m.Peek("k") {
		t.Fatal("Peek missed a resident key")
	}
	if st := m.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek moved the counters: %+v", st)
	}
}

func TestNewMemoryDefaultCapacity(t *testing.T) {
	for _, n := range []int{0, -1} {
		if got := NewMemory(n).max; got != DefaultMaxEntries {
			t.Errorf("NewMemory(%d) holds %d entries, want %d", n, got, DefaultMaxEntries)
		}
	}
}

// TestPutOverwritesResident checks that re-putting a resident key replaces
// its result in place: no second FIFO slot, so the key is evicted once, on
// schedule, and the entry count never double-counts it.
func TestPutOverwritesResident(t *testing.T) {
	m := NewMemory(2)
	a, b := &sim.Result{Cycles: 1}, &sim.Result{Cycles: 2}
	m.Put("k", a)
	m.Put("k", b)
	if got, _ := m.Get("k"); got != b {
		t.Fatalf("Get after overwrite = %+v, want the second result", got)
	}
	m.Put("x", a)
	m.Put("y", a)
	if _, ok := m.Get("k"); ok {
		t.Fatal("overwritten key outlived its FIFO slot")
	}
	if st := m.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries and 1 eviction", st)
	}
}

func TestGetOrComputeFaultPoint(t *testing.T) {
	reg := faults.New(1)
	reg.Arm(faults.Spec{Point: "simcache.get", Mode: faults.ModeError, Count: 1})
	faults.Activate(reg)
	defer faults.Deactivate()

	m := NewMemory(4)
	_, err := m.GetOrCompute(context.Background(), "k", func() (*sim.Result, error) {
		t.Error("compute ran past an injected fault")
		return nil, nil
	})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("a faulted call reached the lookup: %+v", st)
	}
	r, err := m.GetOrCompute(context.Background(), "k", func() (*sim.Result, error) {
		return &sim.Result{Cycles: 3}, nil
	})
	if err != nil || r.Cycles != 3 {
		t.Fatalf("call after the fault spent: %v %+v", err, r)
	}
}

// waitingCtx closes waiting the first time its Done channel is read.
// GetOrCompute reads it only as a waiter on another caller's flight, just
// before it blocks, so a test that waits for it knows the waiter is parked
// on the flight and can release the winner without racing the waiter.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx() *waitingCtx {
	return &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// startWinner starts a GetOrCompute for key whose compute waits for release
// to be closed and then runs compute. It returns once that compute has
// started, so the flight is registered; done carries the winner's error, or
// the panic compute raised, once it returns.
func startWinner(m *Memory, key string, compute func() (*sim.Result, error)) (chan<- struct{}, <-chan error) {
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("panic: %v", p)
			}
		}()
		_, err := m.GetOrCompute(context.Background(), key, func() (*sim.Result, error) {
			close(started)
			<-release
			return compute()
		})
		done <- err
	}()
	<-started
	return release, done
}

// parkWaiter starts a second GetOrCompute for key under a waitingCtx and
// returns once it is parked on the winner's flight; the waiter's result and
// error arrive on the returned channels.
func parkWaiter(m *Memory, key string, compute func() (*sim.Result, error)) (<-chan *sim.Result, <-chan error) {
	ctx := newWaitingCtx()
	res := make(chan *sim.Result, 1)
	errc := make(chan error, 1)
	go func() {
		r, err := m.GetOrCompute(ctx, key, compute)
		res <- r
		errc <- err
	}()
	<-ctx.waiting
	return res, errc
}

func TestGetOrComputeWaiterServedByWinner(t *testing.T) {
	m := NewMemory(4)
	want := &sim.Result{Cycles: 42}
	release, winner := startWinner(m, "k", func() (*sim.Result, error) { return want, nil })
	res, errc := parkWaiter(m, "k", func() (*sim.Result, error) {
		t.Error("waiter computed although the winner succeeded")
		return nil, nil
	})
	close(release)
	if err := <-winner; err != nil {
		t.Fatalf("winner: %v", err)
	}
	if r, err := <-res, <-errc; err != nil || r != want {
		t.Fatalf("waiter got %+v, %v; want the winner's result", r, err)
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the winner's miss and the waiter's hit", st)
	}
}

func TestGetOrComputeWaiterRetriesAfterFailedWinner(t *testing.T) {
	m := NewMemory(4)
	boom := errors.New("boom")
	release, winner := startWinner(m, "k", func() (*sim.Result, error) { return nil, boom })
	res, errc := parkWaiter(m, "k", func() (*sim.Result, error) { return &sim.Result{Cycles: 7}, nil })
	close(release)
	if err := <-winner; !errors.Is(err, boom) {
		t.Fatalf("winner err = %v, want %v", err, boom)
	}
	if r, err := <-res, <-errc; err != nil || r.Cycles != 7 {
		t.Fatalf("waiter got %+v, %v; want its own recomputed result", r, err)
	}
	if st := m.Stats(); st.Misses != 2 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want two misses and only the waiter's result cached", st)
	}
}

// TestGetOrComputePanicReleasesFlight checks that a panicking compute still
// tears its flight down: the panic propagates to the winner's caller, the
// parked waiter is woken with an error and recomputes, and nothing from the
// panicked run is cached.
func TestGetOrComputePanicReleasesFlight(t *testing.T) {
	m := NewMemory(4)
	release, winner := startWinner(m, "k", func() (*sim.Result, error) { panic("compute blew up") })
	res, errc := parkWaiter(m, "k", func() (*sim.Result, error) { return &sim.Result{Cycles: 9}, nil })
	close(release)
	if err := <-winner; err == nil || err.Error() != "panic: compute blew up" {
		t.Fatalf("winner = %v, want the compute's panic", err)
	}
	if r, err := <-res, <-errc; err != nil || r.Cycles != 9 {
		t.Fatalf("waiter got %+v, %v; want its own recomputed result", r, err)
	}
	m.mu.Lock()
	flights := len(m.flights)
	m.mu.Unlock()
	if flights != 0 {
		t.Fatalf("%d flights left behind", flights)
	}
	if st := m.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want two misses and one entry", st)
	}
}
