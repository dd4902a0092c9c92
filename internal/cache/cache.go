// Package cache implements the set-associative caches used for the per-SM L1
// and the per-partition L2 slices, including MSHR-based miss tracking, and
// the sampled auxiliary tag directory (ATD) that DASE and ASM use to detect
// contention-induced shared-cache misses (paper §4.2, "Cache Interference").
package cache

import (
	"fmt"

	"dasesim/internal/config"
	"dasesim/internal/memreq"
)

// AccessResult describes the outcome of a cache access.
type AccessResult int

const (
	// Hit means the line was present.
	Hit AccessResult = iota
	// Miss means the line was absent and an MSHR was allocated; the caller
	// must forward a fill request downstream.
	Miss
	// MergedMiss means the line was absent but a fill for it is already in
	// flight; the access was queued on the existing MSHR.
	MergedMiss
	// Blocked means no MSHR (or merge slot) was available; the caller must
	// retry later. The cache state is unchanged.
	Blocked
)

func (r AccessResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MergedMiss:
		return "merged-miss"
	default:
		return "blocked"
	}
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	owner memreq.AppID // app that brought the line in (replacement stats)
	lru   uint64       // last-touch stamp; higher = more recent
}

type mshr struct {
	tag    uint64
	valid  bool
	merged int // accesses waiting on this fill, beyond the first
}

// mshrIndex is an open-addressed hash table mapping in-flight miss line
// addresses to MSHR slots. Capacity is fixed at construction (at least twice
// the MSHR count, so load factor stays below 1/2) and collisions are resolved
// by linear probing with backward-shift deletion — no tombstones, so probe
// chains never degrade no matter how many fills complete. It replaces both
// the per-miss linear scan over every MSHR and the per-line map the callers
// used for wake lists.
type mshrIndex struct {
	keys  []uint64
	slots []int32 // MSHR slot, or -1 for an empty table entry
	mask  uint64
	shift uint
}

func newMSHRIndex(entries int) mshrIndex {
	size := 8
	for size < 2*entries {
		size <<= 1
	}
	ix := mshrIndex{
		keys:  make([]uint64, size),
		slots: make([]int32, size),
		mask:  uint64(size - 1),
	}
	for s := size; s > 1; s >>= 1 {
		ix.shift++
	}
	ix.shift = 64 - ix.shift
	for i := range ix.slots {
		ix.slots[i] = -1
	}
	return ix
}

// home is the preferred table position for an address (Fibonacci hashing:
// line addresses are highly regular, the multiply spreads them).
func (ix *mshrIndex) home(addr uint64) uint64 {
	return (addr * 0x9e3779b97f4a7c15) >> ix.shift
}

// get returns the MSHR slot registered for addr, or -1.
func (ix *mshrIndex) get(addr uint64) int32 {
	i := ix.home(addr)
	for ix.slots[i] >= 0 {
		if ix.keys[i] == addr {
			return ix.slots[i]
		}
		i = (i + 1) & ix.mask
	}
	return -1
}

// put registers addr -> slot. addr must not already be present, and the
// caller guarantees fewer live entries than MSHRs, so a free cell exists.
func (ix *mshrIndex) put(addr uint64, slot int32) {
	i := ix.home(addr)
	for ix.slots[i] >= 0 {
		i = (i + 1) & ix.mask
	}
	ix.keys[i] = addr
	ix.slots[i] = slot
}

// del removes addr, closing the probe-chain gap by shifting later entries
// back so lookups never need tombstones.
func (ix *mshrIndex) del(addr uint64) {
	i := ix.home(addr)
	for {
		if ix.slots[i] < 0 {
			return // not present
		}
		if ix.keys[i] == addr {
			break
		}
		i = (i + 1) & ix.mask
	}
	j := i
	for {
		j = (j + 1) & ix.mask
		if ix.slots[j] < 0 {
			break
		}
		h := ix.home(ix.keys[j])
		// Entry j may fill the hole at i only if its home position is not
		// cyclically inside (i, j] — otherwise moving it would break the
		// probe chain that leads to it.
		if (j > i && (h <= i || h > j)) || (j < i && (h <= i && h > j)) {
			ix.keys[i] = ix.keys[j]
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = -1
}

// reset empties the table.
func (ix *mshrIndex) reset() {
	for i := range ix.slots {
		ix.slots[i] = -1
	}
}

// Stats aggregates cache activity. Counters are cumulative; callers snapshot
// and subtract for per-interval numbers.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64 // demand misses that allocated an MSHR
	Merged     uint64
	Blockings  uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions (writeback mode only)
}

// Cache is a blocking-free set-associative cache with LRU replacement and a
// fixed pool of MSHRs. It tracks tags only (no data), which is all a timing
// model needs.
type Cache struct {
	cfg   config.CacheConfig
	sets  int
	lines []line // sets*assoc, row-major by set
	mshrs []mshr
	index mshrIndex // in-flight miss address -> MSHR slot
	free  []int32   // free MSHR slots (LIFO)
	stamp uint64

	// Stats is indexed by app; index len-1 aggregates all apps when the
	// cache is shared. Callers size it via NewCache's numApps.
	stats []Stats
}

// NewCache builds a cache sized by cfg, keeping per-app statistics for
// numApps applications.
func NewCache(cfg config.CacheConfig, numApps int) *Cache {
	c := &Cache{
		cfg:   cfg,
		sets:  cfg.Sets(),
		lines: make([]line, cfg.Sets()*cfg.Assoc),
		mshrs: make([]mshr, cfg.MSHRs),
		index: newMSHRIndex(cfg.MSHRs),
		free:  make([]int32, 0, cfg.MSHRs),
		stats: make([]Stats, numApps),
	}
	c.resetFreeSlots()
	return c
}

// resetFreeSlots rebuilds the free stack so slots are handed out in
// ascending order from an empty cache (pop from the top of the stack).
func (c *Cache) resetFreeSlots() {
	c.free = c.free[:0]
	for i := c.cfg.MSHRs - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
}

// Sets returns the number of cache sets.
func (c *Cache) Sets() int { return c.sets }

// Stats returns a copy of the statistics for app.
func (c *Cache) Stats(app memreq.AppID) Stats { return c.stats[app] }

func (c *Cache) setSlice(set int) []line {
	base := set * c.cfg.Assoc
	return c.lines[base : base+c.cfg.Assoc]
}

// AccessIdx performs a demand access for the line containing addr on behalf
// of app; set is the caller-computed set index (callers share an AddrMap so
// the L2 slice and its ATD see identical indices). On Miss the line is NOT
// yet installed — the caller installs it via FillIdx when the downstream
// reply arrives. When the cache is configured for writeback, a store (write)
// hit marks the line dirty.
//
// The second result is the MSHR slot involved: the allocated slot on Miss,
// the merged-onto slot on MergedMiss, and -1 for Hit and Blocked. Callers use
// the slot to index their own waiter lists, which is what makes the miss path
// map-free.
func (c *Cache) AccessIdx(app memreq.AppID, set int, addr uint64, write bool) (AccessResult, int) {
	c.stamp++
	tag := addr
	st := &c.stats[app]
	st.Accesses++
	ways := c.setSlice(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.stamp
			if write && c.cfg.Writeback {
				ways[i].dirty = true
			}
			st.Hits++
			return Hit, -1
		}
	}
	// Miss path: find or allocate an MSHR through the open-addressed index.
	if slot := c.index.get(tag); slot >= 0 {
		m := &c.mshrs[slot]
		if m.merged >= c.cfg.MSHRMerge {
			st.Blockings++
			return Blocked, -1
		}
		m.merged++
		st.Merged++
		return MergedMiss, int(slot)
	}
	if len(c.free) == 0 {
		st.Blockings++
		return Blocked, -1
	}
	slot := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	m := &c.mshrs[slot]
	m.valid = true
	m.tag = tag
	m.merged = 0
	c.index.put(tag, slot)
	st.Misses++
	return Miss, int(slot)
}

// NoteBlocked books what a Blocked access does to the cache — one LRU stamp
// and app's Accesses and Blockings — without the lookup. It is for a caller
// that already knows the verdict: the cache state a Blocked verdict depends
// on (line absent; no free MSHR, or the line's MSHR at its merge cap) only
// changes on a FillIdx or Reset, so a retry before either is Blocked again.
func (c *Cache) NoteBlocked(app memreq.AppID) {
	c.stamp++
	st := &c.stats[app]
	st.Accesses++
	st.Blockings++
}

// Probe reports whether the line is present without updating LRU or stats.
func (c *Cache) Probe(set int, addr uint64) bool {
	ways := c.setSlice(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == addr {
			return true
		}
	}
	return false
}

// FillIdx installs the line for app after its downstream fill returned,
// freeing the MSHR. It returns the number of accesses that were merged on the
// MSHR (waiters to wake beyond the original miss), the previous owner of the
// evicted line (InvalidApp if no valid line was evicted), a write-back report
// and the MSHR slot the fill freed (-1 when no MSHR was registered for the
// address), so callers can drain and recycle the waiter list they indexed by
// that slot.
//
// A write fill completes a store miss, so the installed line is dirty under
// writeback. When a dirty line is evicted, wb carries its address and
// wb.Valid is true — the caller must emit the write-back transaction
// downstream.
func (c *Cache) FillIdx(app memreq.AppID, set int, addr uint64, write bool) (merged int, evicted memreq.AppID, wb Writeback, slot int) {
	c.stamp++
	tag := addr
	slot = -1
	if s := c.index.get(tag); s >= 0 {
		m := &c.mshrs[s]
		merged = m.merged
		m.valid = false
		c.index.del(tag)
		c.free = append(c.free, s)
		slot = int(s)
	}
	evicted = memreq.InvalidApp
	ways := c.setSlice(set)
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range ways {
		if !ways[i].valid {
			victim = i
			oldest = 0
			break
		}
		if ways[i].lru < oldest {
			oldest = ways[i].lru
			victim = i
		}
	}
	v := &ways[victim]
	if v.valid {
		evicted = v.owner
		c.stats[app].Evictions++
		if v.dirty && c.cfg.Writeback {
			wb = Writeback{Valid: true, Addr: v.tag, Owner: v.owner}
			c.stats[app].Writebacks++
		}
	}
	v.valid = true
	v.tag = tag
	v.owner = app
	v.lru = c.stamp
	v.dirty = write && c.cfg.Writeback
	return merged, evicted, wb, slot
}

// Writeback describes a dirty line evicted by FillIdx.
type Writeback struct {
	Valid bool
	Addr  uint64
	Owner memreq.AppID
}

// MSHRSlot returns the MSHR slot tracking an in-flight miss of addr, or -1.
// Callers that keep per-slot waiter state use it to inspect the waiters
// before a Fill retires the slot.
func (c *Cache) MSHRSlot(addr uint64) int { return int(c.index.get(addr)) }

// MSHRsInUse reports how many MSHRs are currently allocated.
func (c *Cache) MSHRsInUse() int { return c.cfg.MSHRs - len(c.free) }

// MSHRAddr returns the miss address tracked by an MSHR slot, and whether the
// slot is currently allocated. Callers that keep per-slot waiter lists use it
// to cross-check their lists against the cache's view.
func (c *Cache) MSHRAddr(slot int) (uint64, bool) {
	if slot < 0 || slot >= len(c.mshrs) || !c.mshrs[slot].valid {
		return 0, false
	}
	return c.mshrs[slot].tag, true
}

// MSHRMerged returns how many accesses are merged on an allocated slot beyond
// the original miss (0 for free slots).
func (c *Cache) MSHRMerged(slot int) int {
	if slot < 0 || slot >= len(c.mshrs) || !c.mshrs[slot].valid {
		return 0
	}
	return c.mshrs[slot].merged
}

// CheckInvariants verifies the agreement between the three MSHR views — the
// mshr array, the open-addressed address index, and the free-slot stack:
//
//   - every index entry points at an allocated MSHR whose tag matches the key,
//     and no slot is indexed twice;
//   - every key is reachable through the probe sequence (get finds it), so
//     backward-shift deletion never broke a chain;
//   - every allocated MSHR is indexed, every free-stack slot is unallocated,
//     each slot is exactly one of the two, and the counts add up.
//
// It is O(MSHRs + table size) and mutates nothing; the simulator's invariant
// checker calls it periodically when enabled.
func (c *Cache) CheckInvariants() error {
	indexed := make(map[int32]uint64, len(c.mshrs))
	entries := 0
	for i := range c.index.slots {
		slot := c.index.slots[i]
		if slot < 0 {
			continue
		}
		entries++
		key := c.index.keys[i]
		if int(slot) >= len(c.mshrs) {
			return fmt.Errorf("cache: index entry %#x -> slot %d out of range", key, slot)
		}
		m := &c.mshrs[slot]
		if !m.valid {
			return fmt.Errorf("cache: index entry %#x -> slot %d which is not allocated", key, slot)
		}
		if m.tag != key {
			return fmt.Errorf("cache: index entry %#x -> slot %d holding tag %#x", key, slot, m.tag)
		}
		if prev, dup := indexed[slot]; dup {
			return fmt.Errorf("cache: slot %d indexed twice (%#x and %#x)", slot, prev, key)
		}
		indexed[slot] = key
		if got := c.index.get(key); got != slot {
			return fmt.Errorf("cache: probe chain broken: get(%#x)=%d, table holds slot %d", key, got, slot)
		}
	}
	free := make(map[int32]bool, len(c.free))
	for _, s := range c.free {
		if int(s) >= len(c.mshrs) || s < 0 {
			return fmt.Errorf("cache: free stack holds out-of-range slot %d", s)
		}
		if free[s] {
			return fmt.Errorf("cache: slot %d on the free stack twice", s)
		}
		free[s] = true
		if c.mshrs[s].valid {
			return fmt.Errorf("cache: slot %d both free and allocated", s)
		}
	}
	allocated := 0
	for s := range c.mshrs {
		m := &c.mshrs[s]
		switch {
		case m.valid:
			allocated++
			if _, ok := indexed[int32(s)]; !ok {
				return fmt.Errorf("cache: allocated slot %d (tag %#x) missing from the index", s, m.tag)
			}
		case !free[int32(s)]:
			return fmt.Errorf("cache: slot %d neither allocated nor on the free stack", s)
		}
	}
	if entries != allocated {
		return fmt.Errorf("cache: %d index entries for %d allocated MSHRs", entries, allocated)
	}
	if allocated+len(c.free) != c.cfg.MSHRs {
		return fmt.Errorf("cache: %d allocated + %d free != %d MSHRs", allocated, len(c.free), c.cfg.MSHRs)
	}
	return nil
}

// Reset invalidates all lines, MSHRs and statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	for i := range c.mshrs {
		c.mshrs[i] = mshr{}
	}
	c.index.reset()
	c.resetFreeSlots()
	for i := range c.stats {
		c.stats[i] = Stats{}
	}
}
