package fleet

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestHistoryRecordSizes pins the size of every struct the history and the
// arrival trace keep one of per interval or per job, so a field added later
// is a deliberate change to the memory the fleet retains.
func TestHistoryRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"TenantRecord", unsafe.Sizeof(TenantRecord{}), 96},
		{"GPURecord", unsafe.Sizeof(GPURecord{}), 20},
		{"Placement", unsafe.Sizeof(Placement{}), 56},
		{"IntervalRecord", unsafe.Sizeof(IntervalRecord{}), 80},
		{"JobSpec", unsafe.Sizeof(JobSpec{}), 56},
		{"Arrival", unsafe.Sizeof(Arrival{}), 64},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, pinned at %d", c.name, c.got, c.want)
		}
	}
}

// TestHistoryBytesPerInterval measures the heap a `fleet-model` run keeps
// per interval once it is over: the records, their tenant, GPU and placement
// slices, queued demands, and the record slice's spare capacity. Before the
// records were packed and kernels shared by pointer it was ≈1,390 bytes;
// packed, ≈930.
func TestHistoryBytesPerInterval(t *testing.T) {
	const intervals, budget = 10_000, 1024
	sc := fleetModelScenario(t, intervals)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perInterval := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / intervals
	runtime.KeepAlive(f)
	runtime.KeepAlive(sc.Arrivals)
	t.Logf("%.0f bytes retained per interval", perInterval)
	if perInterval > budget {
		t.Fatalf("%.0f bytes retained per interval, budget %d", perInterval, budget)
	}
}
