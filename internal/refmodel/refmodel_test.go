package refmodel

import (
	"testing"

	"dasesim/internal/memreq"
)

func TestFIFOBasics(t *testing.T) {
	var f FIFO[int]
	if !f.Empty() || f.Len() != 0 {
		t.Fatal("new FIFO not empty")
	}
	for i := 1; i <= 5; i++ {
		f.PushBack(i)
	}
	if f.Front() != 1 || f.At(4) != 5 || f.Len() != 5 {
		t.Fatalf("unexpected contents: front=%d at4=%d len=%d", f.Front(), f.At(4), f.Len())
	}
	if got := f.RemoveAt(2); got != 3 {
		t.Fatalf("RemoveAt(2)=%d, want 3", got)
	}
	want := []int{1, 2, 4, 5}
	for _, w := range want {
		if got := f.PopFront(); got != w {
			t.Fatalf("PopFront=%d, want %d", got, w)
		}
	}
	f.PushBack(9)
	f.Reset()
	if !f.Empty() {
		t.Fatal("Reset left elements")
	}
}

// TestFIFOPanics: the oracle fails loudly, as ring.Buffer does, on a read
// from an empty queue and on an index outside it.
func TestFIFOPanics(t *testing.T) {
	var f FIFO[int]
	f.PushBack(1)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"PopFront on empty", func() { var e FIFO[int]; e.PopFront() }},
		{"Front on empty", func() { var e FIFO[int]; e.Front() }},
		{"At(1) of 1", func() { f.At(1) }},
		{"At(-1)", func() { f.At(-1) }},
		{"RemoveAt(1) of 1", func() { f.RemoveAt(1) }},
		{"RemoveAt(-1)", func() { f.RemoveAt(-1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.op()
		}()
	}
	if f.Len() != 1 || f.Front() != 1 {
		t.Fatalf("a rejected operation changed the queue: len=%d", f.Len())
	}
}

func TestMSHRIndexBasics(t *testing.T) {
	ix := NewMSHRIndex()
	if ix.Get(0x40) != -1 {
		t.Fatal("empty index returned a slot")
	}
	ix.Put(0x40, 3)
	ix.Put(0x80, 1)
	if ix.Get(0x40) != 3 || ix.Get(0x80) != 1 || ix.Len() != 2 {
		t.Fatal("lookups after Put wrong")
	}
	ix.Del(0x40)
	ix.Del(0x40) // absent: no-op
	if ix.Get(0x40) != -1 || ix.Len() != 1 {
		t.Fatal("Del did not remove the address")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a present address did not panic")
		}
	}()
	ix.Put(0x80, 2)
}

func TestFreshSourceReturnsZeroedDistinct(t *testing.T) {
	var s FreshSource
	a, b := s.Get(), s.Get()
	if a == b {
		t.Fatal("fresh source aliased two requests")
	}
	if *a != (memreq.Request{}) {
		t.Fatalf("fresh request not zeroed: %+v", a)
	}
	a.Addr = 0xdead
	s.Put(a) // drops the request: the next Get is still fresh and zeroed
	if c := s.Get(); *c != (memreq.Request{}) {
		t.Fatalf("Get after Put not zeroed: %+v", c)
	}
}

func TestCountQueued(t *testing.T) {
	mk := func(app memreq.AppID) *memreq.Request { return &memreq.Request{App: app} }
	queues := [][]*memreq.Request{
		{mk(0), mk(1), mk(0)},
		{},
		{mk(1)},
	}
	got := CountQueued(queues, 2, 3)
	want := []int32{
		2, 0, 0, // app 0: banks 0..2
		1, 0, 1, // app 1
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts[%d]=%d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestFRFCFSPickPrefersRowHitThenOldest(t *testing.T) {
	amap := memreq.NewAddrMap(128, 1, 2, 2048)
	// Two banks. Bank 0 has its row open for the row of addr A; bank 1 is
	// closed with an older request.
	addrHit := uint64(0)            // row 0 of bank 0
	addrOld := uint64(2048 * 2 * 4) // some other row
	rowHit := amap.Row(addrHit)
	banks := []FRFCFSBank{
		{Free: true, RowOpen: true, OpenRow: rowHit, Queue: []FRFCFSReq{{App: 0, Addr: addrHit, Seq: 10}}},
		{Free: true, Queue: []FRFCFSReq{{App: 1, Addr: addrOld, Seq: 1}}},
	}
	// Row hit wins over older arrival.
	if b, i := FRFCFSPick(amap, banks, memreq.InvalidApp, memreq.InvalidApp, true, 8); b != 0 || i != 0 {
		t.Fatalf("pick=(%d,%d), want row hit at (0,0)", b, i)
	}
	// With activations forbidden, only the row hit is eligible.
	if b, i := FRFCFSPick(amap, banks, memreq.InvalidApp, memreq.InvalidApp, false, 8); b != 0 || i != 0 {
		t.Fatalf("pick=(%d,%d) with actAllowed=false, want (0,0)", b, i)
	}
	// Priority app preempts the row hit.
	if b, i := FRFCFSPick(amap, banks, 1, memreq.InvalidApp, true, 8); b != 1 || i != 0 {
		t.Fatalf("pick=(%d,%d) with prio=1, want (1,0)", b, i)
	}
	// Restricted to an app with no eligible request: no pick.
	banksClosed := []FRFCFSBank{{Free: true, Queue: []FRFCFSReq{{App: 0, Addr: addrOld, Seq: 1}}}}
	if b, _ := FRFCFSPick(amap, banksClosed, memreq.InvalidApp, 1, true, 8); b != -1 {
		t.Fatalf("pick found a request for an app with none queued (bank %d)", b)
	}
}

// TestExhaustivePartition pins the oracle itself on hand-checked cases: the
// optimum, the tie rule, the starved sentinel, and the degenerate shapes.
func TestExhaustivePartition(t *testing.T) {
	// Reciprocals 1/3 and 1/1.2 at 8/8, interpolated to 11 and 5 SMs.
	third, sixth := 1/3.0, 1/1.2
	r11, r5 := third+3.0/8*(1-third), sixth-3.0/8*sixth
	for _, tc := range []struct {
		name          string
		slow          []float64
		cur           []int
		total, minSMs int
		want          []int
		wantUnf       float64
	}{
		{"more SMs to the slowed app", []float64{3, 1.2}, []int{8, 8}, 16, 1, []int{11, 5}, r11 / r5},
		{"equal apps keep the even split", []float64{2, 2}, []int{8, 8}, 16, 1, []int{8, 8}, 1},
		{"ties keep the earliest", []float64{2, 2, 2}, []int{5, 5, 5}, 16, 1, []int{5, 5, 6}, (0.5 + 0.5/11) / 0.5},
		{"slowdowns below 1 clamp", []float64{0.2, 0.5}, []int{8, 8}, 16, 1, []int{8, 8}, 1},
		{"a zero-SM app starves every candidate", []float64{2, 2}, []int{0, 8}, 8, 1, []int{1, 7}, 1e18},
		{"single app", []float64{3}, []int{4}, 16, 1, []int{16}, 1},
		{"minimum respected", []float64{100, 1}, []int{8, 8}, 16, 7, []int{9, 7}, 0},
		{"infeasible", []float64{2, 2}, []int{1, 1}, 3, 2, nil, 0},
		{"no apps", nil, nil, 16, 1, nil, 0},
	} {
		got, unf := ExhaustivePartition(tc.slow, tc.cur, tc.total, tc.minSMs)
		if len(got) != len(tc.want) || (got == nil) != (tc.want == nil) {
			t.Fatalf("%s: partition %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: partition %v, want %v", tc.name, got, tc.want)
			}
		}
		if tc.wantUnf != 0 && unf != tc.wantUnf {
			t.Errorf("%s: unfairness %v, want %v", tc.name, unf, tc.wantUnf)
		}
	}
}
