package cache

import (
	"testing"
	"testing/quick"

	"dasesim/internal/config"
	"dasesim/internal/memreq"
)

func smallCache() *Cache {
	return NewCache(config.CacheConfig{
		SizeBytes: 4 * 128 * 4, // 4 sets, 4-way
		Assoc:     4,
		LineBytes: 128,
		MSHRs:     4,
		MSHRMerge: 2,
	}, 2)
}

func TestMissThenFillThenHit(t *testing.T) {
	c := smallCache()
	if res, _ := c.AccessIdx(0, 1, 0x1000, false); res != Miss {
		t.Fatalf("cold access = %v, want miss", res)
	}
	merged, evicted, _, _ := c.FillIdx(0, 1, 0x1000, false)
	if merged != 0 || evicted != memreq.InvalidApp {
		t.Fatalf("fill: merged=%d evicted=%v", merged, evicted)
	}
	if res, _ := c.AccessIdx(0, 1, 0x1000, false); res != Hit {
		t.Fatalf("post-fill access = %v, want hit", res)
	}
	st := c.Stats(0)
	if st.Hits != 1 || st.Misses != 1 || st.Accesses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMSHRMergeAndBlock also checks the MSHR slot AccessIdx and FillIdx
// report against the cache's own view of the slot.
func TestMSHRMergeAndBlock(t *testing.T) {
	c := smallCache()
	res, slot := c.AccessIdx(0, 0, 0x2000, false)
	if res != Miss || slot < 0 {
		t.Fatalf("got %v on slot %d, want a miss on an allocated slot", res, slot)
	}
	if res, s := c.AccessIdx(0, 0, 0x2000, false); res != MergedMiss || s != slot {
		t.Fatalf("got %v on slot %d, want a merged miss on slot %d", res, s, slot)
	}
	if res, s := c.AccessIdx(0, 0, 0x2000, false); res != MergedMiss || s != slot {
		t.Fatalf("got %v on slot %d, want a second merged miss on slot %d", res, s, slot)
	}
	// Merge limit (2) reached.
	if res, s := c.AccessIdx(0, 0, 0x2000, false); res != Blocked || s != -1 {
		t.Fatalf("got %v on slot %d, want blocked at merge limit on no slot", res, s)
	}
	if addr, ok := c.MSHRAddr(slot); c.MSHRSlot(0x2000) != slot || !ok || addr != 0x2000 || c.MSHRMerged(slot) != 2 {
		t.Fatalf("MSHR view: slot %d, addr %#x (%v), merged %d", c.MSHRSlot(0x2000), addr, ok, c.MSHRMerged(slot))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	merged, _, _, freed := c.FillIdx(0, 0, 0x2000, false)
	if merged != 2 || freed != slot {
		t.Fatalf("fill released %d merged from slot %d, want 2 from slot %d", merged, freed, slot)
	}
	if _, ok := c.MSHRAddr(slot); ok || c.MSHRSlot(0x2000) != -1 || c.MSHRMerged(slot) != 0 {
		t.Fatal("filled line still holds its MSHR")
	}
	if res, s := c.AccessIdx(0, 0, 0x2000, false); res != Hit || s != -1 {
		t.Fatalf("got %v on slot %d, want a hit on no slot", res, s)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.MSHRsInUse() != 0 {
		t.Fatalf("MSHRs still in use: %d", c.MSHRsInUse())
	}
}

func TestMSHRExhaustion(t *testing.T) {
	c := smallCache()
	addrs := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
	for _, a := range addrs {
		if res, _ := c.AccessIdx(0, 0, a, false); res != Miss {
			t.Fatalf("access %#x: want miss", a)
		}
	}
	if res, _ := c.AccessIdx(0, 0, 0x5000, false); res != Blocked {
		t.Fatal("want blocked when all MSHRs allocated")
	}
	c.FillIdx(0, 0, addrs[0], false)
	if res, _ := c.AccessIdx(0, 0, 0x5000, false); res != Miss {
		t.Fatal("want miss after an MSHR freed")
	}
}

// TestNoteBlockedMatchesBlockedAccess: two caches driven identically except
// that one replaces each Blocked access by NoteBlocked end in the same state
// — per-app stats, and the LRU stamp as witnessed by the next eviction.
func TestNoteBlockedMatchesBlockedAccess(t *testing.T) {
	a, b := smallCache(), smallCache()
	for _, c := range []*Cache{a, b} {
		for i := uint64(0); i < 4; i++ { // all four MSHRs
			if res, _ := c.AccessIdx(1, 0, 0x1000+i*0x200, false); res != Miss {
				t.Fatalf("setup access %d = %v", i, res)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if res, _ := a.AccessIdx(1, 0, 0x9000, false); res != Blocked {
			t.Fatalf("access with no free MSHR = %v, want blocked", res)
		}
		b.NoteBlocked(1)
	}
	for _, c := range []*Cache{a, b} {
		for i := uint64(0); i < 4; i++ {
			c.FillIdx(1, 0, 0x1000+i*0x200, false)
		}
		c.AccessIdx(1, 0, 0x1000, false) // make line 0 the most recent
		c.AccessIdx(1, 0, 0x9000, false)
		c.FillIdx(1, 0, 0x9000, false) // evicts the oldest of the other three
	}
	if a.stamp != b.stamp {
		t.Fatalf("LRU stamp %d after blocked accesses, %d after NoteBlocked", a.stamp, b.stamp)
	}
	if sa, sb := a.Stats(1), b.Stats(1); sa != sb || sa.Blockings != 3 {
		t.Fatalf("stats %+v after blocked accesses, %+v after NoteBlocked", sa, sb)
	}
	if sa, sb := a.Stats(0), b.Stats(0); sa != sb || sa != (Stats{}) {
		t.Fatalf("the other app's stats moved: %+v, %+v", sa, sb)
	}
	for i := uint64(0); i < 4; i++ {
		addr := 0x1000 + i*0x200
		if pa, pb := a.Probe(0, addr), b.Probe(0, addr); pa != pb {
			t.Fatalf("line %#x resident %v after blocked accesses, %v after NoteBlocked", addr, pa, pb)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache()
	// Fill set 2 with 4 lines, touching them in order.
	for i := 0; i < 4; i++ {
		addr := uint64(0x10000 + i*0x1000)
		c.AccessIdx(0, 2, addr, false)
		c.FillIdx(0, 2, addr, false)
	}
	// Touch line 0 to refresh it; line 1 becomes LRU.
	if res, _ := c.AccessIdx(0, 2, 0x10000, false); res != Hit {
		t.Fatal("line 0 should hit")
	}
	// New fill must evict line 1 (the LRU), owned by app 0.
	c.AccessIdx(0, 2, 0x20000, false)
	_, evicted, _, _ := c.FillIdx(1, 2, 0x20000, false)
	if evicted != 0 {
		t.Fatalf("evicted owner = %v, want app 0", evicted)
	}
	if res, _ := c.AccessIdx(0, 2, 0x10000, false); res != Hit {
		t.Fatal("refreshed line 0 must survive")
	}
	if res, _ := c.AccessIdx(0, 2, 0x11000, false); res == Hit {
		t.Fatal("LRU line 1 should have been evicted")
	}
}

func TestProbeDoesNotTouch(t *testing.T) {
	c := smallCache()
	c.AccessIdx(0, 3, 0x7000, false)
	c.FillIdx(0, 3, 0x7000, false)
	before := c.Stats(0)
	if !c.Probe(3, 0x7000) {
		t.Fatal("probe should find the line")
	}
	if c.Probe(3, 0x8000) {
		t.Fatal("probe should miss an absent line")
	}
	if c.Stats(0) != before {
		t.Fatal("probe changed statistics")
	}
}

func TestReset(t *testing.T) {
	c := smallCache()
	c.AccessIdx(0, 0, 0x1000, false)
	c.FillIdx(0, 0, 0x1000, false)
	c.Reset()
	if c.Stats(0).Accesses != 0 {
		t.Fatal("stats survived reset")
	}
	if res, _ := c.AccessIdx(0, 0, 0x1000, false); res != Miss {
		t.Fatal("line survived reset")
	}
}

// TestSetOccupancyProperty: a set never holds more valid distinct tags than
// its associativity, no matter the access pattern.
func TestSetOccupancyProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache()
		live := map[uint64]bool{}
		for _, a := range addrs {
			addr := uint64(a) * 128
			if res, _ := c.AccessIdx(0, 0, addr, false); res == Miss {
				c.FillIdx(0, 0, addr, false)
				live[addr] = true
			}
		}
		// Count how many of the touched lines are still present.
		present := 0
		for addr := range live {
			if c.Probe(0, addr) {
				present++
			}
		}
		return present <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestATDContentionDetection(t *testing.T) {
	// ATD shadowing a 8-set cache, sampling all 8 sets, 2-way.
	atd := NewATD(8, 2, 8)
	if atd.SampleFraction() != 1 {
		t.Fatalf("full sampling fraction = %v", atd.SampleFraction())
	}
	// App touches a line; ATD installs it.
	if atd.Access(0, 0x1000, true) {
		t.Fatal("first access cannot be a contention miss")
	}
	// Second access, shared cache hit: no contention.
	if atd.Access(0, 0x1000, false) {
		t.Fatal("shared hit is never a contention miss")
	}
	// Third access, shared cache MISS but ATD hit: the line was evicted by
	// another app -> contention miss.
	if !atd.Access(0, 0x1000, true) {
		t.Fatal("shared miss with ATD hit must be a contention miss")
	}
	if atd.SampleMisses != 1 {
		t.Fatalf("SampleMisses = %d", atd.SampleMisses)
	}
	if atd.ExtraMisses() != 1 {
		t.Fatalf("ExtraMisses = %v", atd.ExtraMisses())
	}
}

func TestATDSampling(t *testing.T) {
	// 64 sets, sample 8: stride 8, only sets 0,8,16,... observed.
	atd := NewATD(64, 4, 8)
	if got := atd.SampleFraction(); got != 0.125 {
		t.Fatalf("SampleFraction = %v, want 0.125", got)
	}
	if atd.Access(1, 0xAA000, true) {
		t.Fatal("unsampled set must never report contention")
	}
	if atd.SampleAccesses != 0 {
		t.Fatal("unsampled set counted as sampled")
	}
	atd.Access(0, 0xBB000, true) // set 0 is sampled
	if atd.SampleAccesses != 1 {
		t.Fatalf("SampleAccesses = %d, want 1", atd.SampleAccesses)
	}
	// A contention miss in a sampled set scales by 1/fraction.
	atd.Access(0, 0xBB000, true)
	if atd.ExtraMisses() != 8 {
		t.Fatalf("ExtraMisses = %v, want 8 (1 sampled / 0.125)", atd.ExtraMisses())
	}
}

func TestATDLRUWithinSet(t *testing.T) {
	atd := NewATD(8, 2, 8)
	atd.Access(0, 0x1000, true) // install A
	atd.Access(0, 0x2000, true) // install B (same set 0? depends on caller's set arg)
	// Third distinct line in set 0 evicts the LRU (A).
	atd.Access(0, 0x3000, true)
	// A was evicted from the ATD too, so a shared miss on A is NOT
	// contention (the app's own footprint overflows the set).
	if atd.Access(0, 0x1000, true) {
		t.Fatal("self-eviction must not count as contention")
	}
	// B... was evicted by the A reinstall; C is still resident.
	if !atd.Access(0, 0x3000, true) {
		t.Fatal("resident line with shared miss must be contention")
	}
}

func TestATDResetCounters(t *testing.T) {
	atd := NewATD(8, 2, 8)
	atd.Access(0, 0x1000, true)
	atd.Access(0, 0x1000, true)
	if atd.SampleMisses != 1 {
		t.Fatal("setup failed")
	}
	atd.ResetCounters()
	if atd.SampleMisses != 0 || atd.SampleAccesses != 0 {
		t.Fatal("counters survived reset")
	}
	// Tag state must survive: another shared miss is still contention.
	if !atd.Access(0, 0x1000, true) {
		t.Fatal("ATD tags must survive ResetCounters")
	}
	atd.Reset()
	if atd.Access(0, 0x1000, true) {
		t.Fatal("ATD tags must be cleared by Reset")
	}
}
