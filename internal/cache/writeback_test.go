package cache

import (
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/memreq"
)

func wbCache() *Cache {
	return NewCache(config.CacheConfig{
		SizeBytes: 2 * 128 * 2, // 2 sets, 2-way
		Assoc:     2,
		LineBytes: 128,
		MSHRs:     4,
		MSHRMerge: 2,
		Writeback: true,
	}, 2)
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := wbCache()
	// Install a line via a write miss -> dirty.
	if res, _ := c.AccessIdx(0, 0, 0x1000, true); res != Miss {
		t.Fatal("want miss")
	}
	if _, _, wb, _ := c.FillIdx(0, 0, 0x1000, true); wb.Valid {
		t.Fatal("fill into empty way must not write back")
	}
	// Fill the other way (clean).
	c.AccessIdx(0, 0, 0x2000, false)
	c.FillIdx(0, 0, 0x2000, false)
	// Next fill evicts the LRU = the dirty 0x1000 line.
	c.AccessIdx(1, 0, 0x3000, false)
	_, evicted, wb, _ := c.FillIdx(1, 0, 0x3000, false)
	if evicted != 0 {
		t.Fatalf("evicted owner = %v", evicted)
	}
	if !wb.Valid || wb.Addr != 0x1000 || wb.Owner != 0 {
		t.Fatalf("expected writeback of 0x1000 owned by app 0, got %+v", wb)
	}
	if c.Stats(1).Writebacks != 1 {
		t.Fatalf("writeback stat = %d", c.Stats(1).Writebacks)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	c := wbCache()
	for i, addr := range []uint64{0x1000, 0x2000, 0x3000} {
		c.AccessIdx(0, 0, addr, false)
		_, _, wb, _ := c.FillIdx(0, 0, addr, false)
		if wb.Valid {
			t.Fatalf("clean eviction %d produced a writeback", i)
		}
	}
}

func TestStoreHitMarksDirty(t *testing.T) {
	c := wbCache()
	// Install clean, then store-hit it, then evict: must write back.
	c.AccessIdx(0, 1, 0x1080, false)
	c.FillIdx(0, 1, 0x1080, false)
	if res, _ := c.AccessIdx(0, 1, 0x1080, true); res != Hit {
		t.Fatal("store should hit")
	}
	c.AccessIdx(0, 1, 0x2080, false)
	c.FillIdx(0, 1, 0x2080, false)
	c.AccessIdx(0, 1, 0x3080, false)
	_, _, wb, _ := c.FillIdx(0, 1, 0x3080, false)
	if !wb.Valid || wb.Addr != 0x1080 {
		t.Fatalf("store-hit line not written back: %+v", wb)
	}
}

func TestWritebackDisabledByDefault(t *testing.T) {
	c := smallCache() // Writeback: false
	c.AccessIdx(0, 0, 0x1000, true)
	if _, _, wb, _ := c.FillIdx(0, 0, 0x1000, true); wb.Valid {
		t.Fatal("writeback emitted with writeback disabled")
	}
	for _, addr := range []uint64{0x2000, 0x3000, 0x4000, 0x5000} {
		c.AccessIdx(0, 0, addr, true)
		if _, _, wb, _ := c.FillIdx(0, 0, addr, true); wb.Valid {
			t.Fatal("writeback emitted with writeback disabled")
		}
	}
	_ = memreq.InvalidApp
}
