package memsys

import (
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return NewCache(CacheConfig{SizeBytes: 512, Ways: 2, LineBytes: 64, VictimEntries: 4})
}

// fillNow installs addr's line at once, evicting the set's LRU line into
// the victim buffer.
func fillNow(c *Cache, addr, now uint64) { c.install(c.lineAddr(addr), now) }

func TestCacheHitAfterFill(t *testing.T) {
	c := smallCache()
	if hit, _ := c.Lookup(0x1000, 1); hit {
		t.Fatal("cold cache should miss")
	}
	fillNow(c, 0x1000, 1)
	if hit, _ := c.Lookup(0x1000, 2); !hit {
		t.Fatal("filled line should hit")
	}
	// Same line, different word.
	if hit, _ := c.Lookup(0x1038, 3); !hit {
		t.Fatal("same-line access should hit")
	}
	// Next line misses.
	if hit, _ := c.Lookup(0x1040, 4); hit {
		t.Fatal("adjacent line should miss")
	}
}

func TestCacheInflightMerge(t *testing.T) {
	c := smallCache()
	c.Lookup(0x2000, 10)
	c.StartFill(0x2000, 30)
	hit, ready := c.Lookup(0x2000, 15)
	if hit || ready != 30 {
		t.Fatalf("in-flight lookup = %v,%d, want false,30", hit, ready)
	}
	// After the fill completes, the line hits (lazy promotion).
	if hit, _ := c.Lookup(0x2000, 31); !hit {
		t.Fatal("completed fill should hit")
	}
	missesBefore := c.Misses
	c.Lookup(0x2000, 32)
	if c.Misses != missesBefore {
		t.Fatal("post-fill access should not count as miss")
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 512 B / 64 B = 8 lines, 2 ways -> 4 sets. Lines mapping to set 0:
	// line addresses 0, 4, 8 (addr 0x000, 0x100, 0x200).
	c := NewCache(CacheConfig{SizeBytes: 512, Ways: 2, LineBytes: 64})
	fillNow(c, 0x000, 1)
	fillNow(c, 0x100, 2)
	c.Lookup(0x000, 3) // touch first: 0x100 becomes LRU
	fillNow(c, 0x200, 4)
	if hit, _ := c.Lookup(0x000, 5); !hit {
		t.Error("recently used line evicted")
	}
	if hit, _ := c.Lookup(0x100, 6); hit {
		t.Error("LRU line should have been evicted")
	}
}

func TestVictimBufferCatchesEviction(t *testing.T) {
	c := smallCache()
	fillNow(c, 0x000, 1)
	fillNow(c, 0x100, 2)
	fillNow(c, 0x200, 3) // evicts 0x000 into the victim buffer
	hit, _ := c.Lookup(0x000, 4)
	if !hit {
		t.Fatal("victim buffer should supply the evicted line")
	}
	if c.VictimHits != 1 {
		t.Fatalf("VictimHits = %d, want 1", c.VictimHits)
	}
}

func TestFIFOBufferCapacity(t *testing.T) {
	f := newFIFOBuffer(2)
	f.add(1)
	f.add(2)
	f.add(3) // evicts 1
	if f.contains(1) {
		t.Error("oldest entry should have been displaced")
	}
	if !f.contains(2) || !f.contains(3) {
		t.Error("recent entries missing")
	}
	if f.remove(99) {
		t.Error("removing absent entry should return false")
	}
	if !f.remove(2) || f.contains(2) {
		t.Error("remove failed")
	}
}

// Property: a line just filled always hits, regardless of address.
func TestCacheFillThenHitProperty(t *testing.T) {
	f := func(addr uint64) bool {
		c := smallCache()
		fillNow(c, addr, 1)
		hit, _ := c.Lookup(addr, 2)
		return hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := New()
	// Cold load: memory latency.
	if lat := h.LoadLatency(0x1000_0000, 100); lat != 180 {
		t.Fatalf("cold load latency = %d, want 180", lat)
	}
	// Second access before the fill completes merges with it.
	if lat := h.LoadLatency(0x1000_0008, 150); lat != 130 {
		t.Fatalf("merged load latency = %d, want 130", lat)
	}
	// After the fill: hit.
	if lat := h.LoadLatency(0x1000_0000, 300); lat != 0 {
		t.Fatalf("post-fill load latency = %d, want 0", lat)
	}
	// Different L1 line, same L2 line (128B L2 lines): L2 hit.
	if lat := h.LoadLatency(0x1000_0040, 301); lat != 12 {
		t.Fatalf("L2-hit load latency = %d, want 12", lat)
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h := New()
	if lat := h.FetchLatency(0x1000, 1); lat != 180 {
		t.Fatalf("cold fetch latency = %d, want 180", lat)
	}
	if lat := h.FetchLatency(0x1004, 200); lat != 0 {
		t.Fatalf("warm fetch latency = %d, want 0", lat)
	}
}

func TestUnitStridePrefetcher(t *testing.T) {
	h := New()
	now := uint64(0)
	// Two sequential misses establish a stream; the prefetcher should pull
	// the following lines so later sequential accesses hit or merge early.
	h.LoadLatency(0x2000_0000, now)
	h.LoadLatency(0x2000_0040, now+200) // miss, stride detected, prefetch
	if h.PrefetchIssued == 0 {
		t.Fatal("expected prefetches on a sequential stream")
	}
	// Once the prefetch has had time to complete, the next sequential line
	// hits without a demand miss.
	lat := h.LoadLatency(0x2000_0080, now+600)
	if lat != 0 {
		t.Fatalf("prefetched line latency = %d, want 0", lat)
	}
}

func TestStoreBufferCoalescingAndStalls(t *testing.T) {
	h := New()
	if !h.StoreRetire(0x3000_0000, 1) {
		t.Fatal("first store rejected")
	}
	// Same line coalesces without a new entry.
	if !h.StoreRetire(0x3000_0008, 1) {
		t.Fatal("coalescing store rejected")
	}
	if len(h.sbuf) != 1 {
		t.Fatalf("occupancy = %d, want 1", len(h.sbuf))
	}
	// Fill the buffer with slow (miss) writes to distinct lines.
	for i := uint64(1); i < StoreBufEntries; i++ {
		if !h.StoreRetire(0x3000_0000+i<<12, 1) {
			t.Fatalf("store to line %d rejected with %d entries buffered", i, len(h.sbuf))
		}
	}
	// Buffer full: the next line must stall.
	if h.StoreRetire(0x3100_0000, 2) {
		t.Fatal("expected store-buffer stall")
	}
	if h.StoreBufStalls != 1 {
		t.Fatalf("StoreBufStalls = %d, want 1", h.StoreBufStalls)
	}
	// Long after the writes complete, the buffer drains and accepts again.
	if !h.StoreRetire(0x3100_0000, 1000) {
		t.Fatal("store rejected after drain")
	}
}

func TestStoreForwardingToLoads(t *testing.T) {
	h := New()
	h.StoreRetire(0x4000_0000, 1)
	// A load from the buffered line forwards without memory latency even
	// though the line is still being written.
	if lat := h.LoadLatency(0x4000_0010, 2); lat != 0 {
		t.Fatalf("store-buffer forward latency = %d, want 0", lat)
	}
}

func TestMissRate(t *testing.T) {
	c := smallCache()
	c.Lookup(0x0, 1) // miss
	fillNow(c, 0x0, 1)
	c.Lookup(0x0, 2) // hit
	if c.Misses != 1 || c.Accesses != 2 {
		t.Fatalf("misses/accesses = %d/%d, want 1/2", c.Misses, c.Accesses)
	}
}
