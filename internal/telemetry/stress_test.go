package telemetry

import (
	"sync"
	"testing"
)

// tagID derives a per-event marker from the emitting goroutine and iteration,
// letting the stress test detect torn events: every field stamped from the
// same (g, i) pair must come back together or not at all.
func tagID(g, i int) uint64 {
	return uint64(g)<<32 | uint64(i) | 1<<63 // high bit keeps it non-zero
}

// TestTracerConcurrentEmitStress hammers a small ring from many goroutines
// through thousands of wrap-arounds (run under -race in CI). Invariants: no
// emission is lost from the totals, the retained window is seq-contiguous,
// and no event is torn — every retained event's payload fields are exactly
// the ones stamped together by one Emit call.
func TestTracerConcurrentEmitStress(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5_000
		ringSize   = 256 // total emissions wrap the ring ~312 times
	)
	tr := New(ringSize)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := tagID(g, i)
				tr.Emit(Event{
					Kind: KindInterval, App: int32(g), SM: -1,
					Cycle: uint64(i), Served: id, Wall: int64(id + 1), Deserved: float64(id + 2),
				})
			}
		}(g)
	}
	wg.Wait()

	const want = goroutines * perG
	if tr.Total() != want {
		t.Fatalf("Total = %d, want %d (lost emissions)", tr.Total(), want)
	}
	if tr.Len() != ringSize {
		t.Fatalf("Len = %d, want %d", tr.Len(), ringSize)
	}
	if tr.Dropped() != want-ringSize {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), want-ringSize)
	}
	evs := tr.Events()
	for i, e := range evs {
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap in retained window: %d then %d", evs[i-1].Seq, e.Seq)
		}
		// Reconstruct the marker from the event's own (App, Cycle) stamp and
		// require every other field to match it: a torn event (fields from
		// two interleaved Emit calls) cannot pass.
		id := tagID(int(e.App), int(e.Cycle))
		if e.Served != id || e.Wall != int64(id+1) || e.Deserved != float64(id+2) {
			t.Fatalf("torn event at seq %d: app=%d cycle=%d served=%x wall=%x deserved=%v",
				e.Seq, e.App, e.Cycle, e.Served, e.Wall, e.Deserved)
		}
	}
}

// TestTracerConcurrentEmitWithReaders interleaves Emit with Events snapshots
// — the access pattern of a live /v1/trace scrape during a run — and requires
// every snapshot to be internally consistent (contiguous sequence numbers, no
// torn payload fields).
func TestTracerConcurrentEmitWithReaders(t *testing.T) {
	tr := New(128)
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2_000; i++ {
				id := tagID(g, i)
				tr.Emit(Event{Kind: KindJobQueued, App: int32(g), SM: -1,
					Cycle: uint64(i), Served: id, Wall: int64(id + 1)})
			}
		}(g)
	}

	stop := make(chan struct{})
	errCh := make(chan string, 2)
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := tr.Events()
				for i, e := range evs {
					if i > 0 && e.Seq != evs[i-1].Seq+1 {
						errCh <- "seq gap in concurrent snapshot"
						return
					}
					if id := tagID(int(e.App), int(e.Cycle)); e.Served != id || e.Wall != int64(id+1) {
						errCh <- "torn event in concurrent snapshot"
						return
					}
				}
			}
		}()
	}

	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}
	if tr.Total() != 8_000 {
		t.Fatalf("Total = %d, want 8000", tr.Total())
	}
}

// TestEmitFullEventDoesNotAllocate pins the zero-alloc budget for the daemon
// sites: a fully-populated job event — both strings, wall clock, attempt,
// cache hit — must still copy into the ring without a single allocation.
func TestEmitFullEventDoesNotAllocate(t *testing.T) {
	tr := New(64)
	e := Event{
		Kind: KindJobDone, Wall: 12345, App: -1, SM: -1,
		Job: "job-42", Note: "done", Attempt: 3, CacheHit: true,
		Alloc: [MaxApps]int32{10, 6}, Deserved: 0.5,
	}
	avg := testing.AllocsPerRun(1000, func() {
		tr.Emit(e)
	})
	if avg > 0 {
		t.Fatalf("Emit of a full event allocates %.1f objects per call, want 0", avg)
	}
}
