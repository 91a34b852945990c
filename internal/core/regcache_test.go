package core

import (
	"testing"
	"testing/quick"
)

// lookup probes for p without side effects: no LRU update, no use
// decrement, no statistics.
func (c *Cache) lookup(p PReg, set int) (uses int, pinned, ok bool) {
	if c.cfg.Index == IndexPReg {
		set = int(p) % c.nsets
	}
	if st := c.state(p); st.inserted {
		e := &c.sets[set][st.way]
		if e.valid && e.preg == p {
			return e.uses, e.pinned, true
		}
	}
	return 0, false, false
}

// tiny returns a 4-entry, 2-way cache for focused policy tests.
func tiny(insert InsertPolicy, replace ReplacePolicy, index IndexScheme) *Cache {
	return New(Config{Entries: 4, Ways: 2, Insert: insert, Replace: replace, Index: index})
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{})
	cfg := c.cfg
	if cfg.Entries != 64 || cfg.Ways != 64 {
		t.Errorf("defaults: entries=%d ways=%d, want 64/64 (fully associative)", cfg.Entries, cfg.Ways)
	}
	if cfg.MaxUse != 7 || cfg.UnknownDefault != 1 || cfg.FillDefault != 0 {
		t.Errorf("defaults: maxuse=%d unknown=%d fill=%d, want 7/1/0", cfg.MaxUse, cfg.UnknownDefault, cfg.FillDefault)
	}
	if cfg.HighUseCutoff != 5 {
		t.Errorf("high-use cutoff = %d, want 5", cfg.HighUseCutoff)
	}
}

func TestUseBasedConfigIsPaperDesignPoint(t *testing.T) {
	cfg := UseBasedConfig()
	c := New(cfg)
	got := c.cfg
	if got.Entries != 64 || got.Ways != 2 || got.Insert != InsertUseBased ||
		got.Replace != ReplaceUseBased || got.Index != IndexFilteredRR {
		t.Errorf("UseBasedConfig = %+v", got)
	}
	if c.nsets != 32 {
		t.Errorf("sets = %d, want 32", c.nsets)
	}
	if got.SetSkipThreshold != 1 {
		t.Errorf("skip threshold = %d, want ways/2 = 1", got.SetSkipThreshold)
	}
}

func TestClampAndPin(t *testing.T) {
	c := New(Config{Entries: 4, Ways: 2})
	if c.ClampUses(100) != 7 || c.ClampUses(-1) != 0 || c.ClampUses(3) != 3 {
		t.Error("ClampUses wrong")
	}
	if !c.Pins(7) || c.Pins(6) {
		t.Error("Pins wrong")
	}
}

func TestBasicHitAndUseDecrement(t *testing.T) {
	c := tiny(InsertUseBased, ReplaceUseBased, IndexRoundRobin)
	set := c.Allocate(1, 2)
	if !c.Produce(1, set, 2, false, false, 10) {
		t.Fatal("value with remaining uses must be inserted")
	}
	if !c.Read(1, set, 11) {
		t.Fatal("expected hit")
	}
	uses, _, ok := c.lookup(1, set)
	if !ok || uses != 1 {
		t.Fatalf("after one read: uses=%d ok=%v, want 1", uses, ok)
	}
	c.Read(1, set, 12)
	uses, _, _ = c.lookup(1, set)
	if uses != 0 {
		t.Fatalf("after two reads: uses=%d, want 0", uses)
	}
	// Zero-use values stay resident until victimized (Section 3.4).
	if !c.Read(1, set, 13) {
		t.Fatal("zero-use resident value must still hit")
	}
}

func TestUseBasedInsertionFilters(t *testing.T) {
	c := tiny(InsertUseBased, ReplaceUseBased, IndexRoundRobin)
	set := c.Allocate(1, 1)
	// The only predicted consumer was satisfied by bypass stage 1:
	// remaining = 0, so the write is filtered.
	if c.Produce(1, set, 0, false, true, 10) {
		t.Fatal("fully bypassed value must not be inserted")
	}
	if c.Stats.WritesFiltered != 1 {
		t.Fatalf("WritesFiltered = %d, want 1", c.Stats.WritesFiltered)
	}
	// A later read misses and classifies as filtered.
	if c.Read(1, set, 20) {
		t.Fatal("filtered value cannot hit")
	}
	if c.Stats.MissBy[MissFiltered] != 1 {
		t.Fatalf("filtered misses = %d, want 1", c.Stats.MissBy[MissFiltered])
	}
}

func TestUseBasedInsertionKeepsPartiallyBypassed(t *testing.T) {
	// The key advantage over non-bypass (Section 3.1): a multi-use value
	// bypassed to only SOME consumers is still cached.
	c := tiny(InsertUseBased, ReplaceUseBased, IndexRoundRobin)
	set := c.Allocate(1, 3)
	if !c.Produce(1, set, 2, false, true, 10) {
		t.Fatal("value with remaining uses must be inserted despite bypassing")
	}
}

func TestNonBypassInsertionFiltersOnAnyBypass(t *testing.T) {
	c := tiny(InsertNonBypass, ReplaceLRU, IndexRoundRobin)
	set := c.Allocate(1, 3)
	// Even with 2 uses remaining, any bypass filters the write — the
	// non-bypass heuristic's weakness the paper exploits.
	if c.Produce(1, set, 2, false, true, 10) {
		t.Fatal("non-bypass must filter any bypassed value")
	}
	set2 := c.Allocate(2, 1)
	if !c.Produce(2, set2, 1, false, false, 11) {
		t.Fatal("non-bypassed value must be inserted")
	}
}

func TestAlwaysInsertion(t *testing.T) {
	c := tiny(InsertAlways, ReplaceLRU, IndexRoundRobin)
	set := c.Allocate(1, 0)
	if !c.Produce(1, set, 0, false, true, 10) {
		t.Fatal("LRU design caches every value")
	}
}

func TestUseBasedReplacementPicksFewestUses(t *testing.T) {
	// Single-set cache (2 entries, 2 ways): fill with uses {0, 3}, insert a
	// third value; the zero-use entry must be the victim.
	c := New(Config{Entries: 2, Ways: 2, Insert: InsertAlways, Replace: ReplaceUseBased, Index: IndexRoundRobin})
	c.Allocate(1, 0)
	c.Produce(1, 0, 0, false, false, 10) // zero uses
	c.Allocate(2, 3)
	c.Produce(2, 0, 3, false, false, 11) // three uses
	c.Allocate(3, 1)
	c.Produce(3, 0, 1, false, false, 12)
	if _, _, ok := c.lookup(1, 0); ok {
		t.Fatal("zero-use entry should have been victimized")
	}
	if _, _, ok := c.lookup(2, 0); !ok {
		t.Fatal("high-use entry should survive")
	}
	if c.Stats.VictimsZeroUse != 1 || c.Stats.Victims != 1 {
		t.Fatalf("victim stats = %d/%d, want 1/1", c.Stats.VictimsZeroUse, c.Stats.Victims)
	}
}

func TestUseBasedReplacementLRUTiebreak(t *testing.T) {
	c := New(Config{Entries: 2, Ways: 2, Insert: InsertAlways, Replace: ReplaceUseBased, Index: IndexRoundRobin})
	c.Allocate(1, 1)
	c.Produce(1, 0, 1, false, false, 10)
	c.Allocate(2, 1)
	c.Produce(2, 0, 1, false, false, 20) // same uses, younger
	c.Allocate(3, 1)
	c.Produce(3, 0, 1, false, false, 30)
	if _, _, ok := c.lookup(1, 0); ok {
		t.Fatal("older entry should lose the tie")
	}
	if _, _, ok := c.lookup(2, 0); !ok {
		t.Fatal("younger entry should survive the tie")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(Config{Entries: 2, Ways: 2, Insert: InsertAlways, Replace: ReplaceLRU, Index: IndexRoundRobin})
	c.Allocate(1, 7)
	c.Produce(1, 0, 7, true, false, 10) // pinned and high-use — LRU ignores that
	c.Allocate(2, 0)
	c.Produce(2, 0, 0, false, false, 20)
	c.Read(1, 0, 25) // touch 1: 2 becomes LRU
	c.Allocate(3, 1)
	c.Produce(3, 0, 1, false, false, 30)
	if _, _, ok := c.lookup(2, 0); ok {
		t.Fatal("LRU entry (preg 2) should have been evicted")
	}
	if _, _, ok := c.lookup(1, 0); !ok {
		t.Fatal("recently read entry should survive")
	}
}

func TestPinnedEntriesResistReplacementAndDecrement(t *testing.T) {
	c := New(Config{Entries: 2, Ways: 2, Insert: InsertUseBased, Replace: ReplaceUseBased, Index: IndexRoundRobin})
	c.Allocate(1, 7)
	c.Produce(1, 0, 7, true, false, 10)
	for i := 0; i < 20; i++ {
		c.Read(1, 0, uint64(11+i))
	}
	uses, pinned, ok := c.lookup(1, 0)
	if !ok || !pinned || uses != 7 {
		t.Fatalf("pinned entry: uses=%d pinned=%v ok=%v, want 7/true/true", uses, pinned, ok)
	}
	// Fill the set and insert more values: the pinned entry must survive.
	c.Allocate(2, 0)
	c.Produce(2, 0, 0, false, false, 40)
	c.Allocate(3, 0)
	c.Produce(3, 0, 0, false, false, 41)
	c.Allocate(4, 0)
	c.Produce(4, 0, 0, false, false, 42)
	if _, _, ok := c.lookup(1, 0); !ok {
		t.Fatal("pinned entry was evicted")
	}
	// Only invalidate-on-free removes it.
	c.Free(1, 50)
	if _, _, ok := c.lookup(1, 0); ok {
		t.Fatal("freed pinned entry still resident")
	}
}

func TestFillUsesFillDefault(t *testing.T) {
	c := tiny(InsertUseBased, ReplaceUseBased, IndexRoundRobin)
	set := c.Allocate(1, 1)
	c.Produce(1, set, 0, false, true, 10) // filtered
	c.Read(1, set, 20)                    // miss
	c.Fill(1, set, 28)
	uses, pinned, ok := c.lookup(1, set)
	if !ok || uses != 0 || pinned {
		t.Fatalf("fill: uses=%d pinned=%v ok=%v, want 0/false/true", uses, pinned, ok)
	}
	if c.Stats.Fills != 1 {
		t.Fatalf("Fills = %d, want 1", c.Stats.Fills)
	}
	// The filled value hits subsequently.
	if !c.Read(1, set, 30) {
		t.Fatal("filled value should hit")
	}
}

func TestFillAfterFreeIsDropped(t *testing.T) {
	c := tiny(InsertUseBased, ReplaceUseBased, IndexRoundRobin)
	set := c.Allocate(1, 1)
	c.Produce(1, set, 1, false, false, 10)
	c.Free(1, 20)
	c.Fill(1, set, 25) // in-flight fill completing after squash/free
	if _, _, ok := c.lookup(1, set); ok {
		t.Fatal("fill after free must not install a stale value")
	}
}

func TestInvalidateOnFreeStats(t *testing.T) {
	c := tiny(InsertUseBased, ReplaceUseBased, IndexRoundRobin)
	set := c.Allocate(1, 2)
	c.Produce(1, set, 2, false, false, 10)
	c.Free(1, 35)
	if c.Stats.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", c.Stats.Invalidations)
	}
	if c.Stats.Residencies != 1 || c.Stats.ResidencyCycles != 25 {
		t.Fatalf("residency stats = %d/%d, want 1/25", c.Stats.Residencies, c.Stats.ResidencyCycles)
	}
	if c.Stats.CachedNeverRead != 1 {
		t.Fatalf("CachedNeverRead = %d, want 1 (no reads served)", c.Stats.CachedNeverRead)
	}
	// Double free is a no-op.
	c.Free(1, 40)
	if c.Stats.Invalidations != 1 || c.Stats.ValuesFreed != 1 {
		t.Fatal("double free changed statistics")
	}
}

func TestNoteBypassUseDecrementsResident(t *testing.T) {
	c := tiny(InsertUseBased, ReplaceUseBased, IndexRoundRobin)
	set := c.Allocate(1, 3)
	c.Produce(1, set, 3, false, false, 10)
	c.NoteBypassUse(1, set)
	uses, _, _ := c.lookup(1, set)
	if uses != 2 {
		t.Fatalf("uses = %d after bypass note, want 2", uses)
	}
	// Pinned entries are not decremented.
	set2 := c.Allocate(2, 7)
	c.Produce(2, set2, 7, true, false, 11)
	c.NoteBypassUse(2, set2)
	uses, _, _ = c.lookup(2, set2)
	if uses != 7 {
		t.Fatalf("pinned uses = %d after bypass note, want 7", uses)
	}
}

// Regression: NoteBypassUse must forward the decrement to the shadow cache
// (it is the only access path that didn't), or the shadow's use counts —
// and therefore its use-based victim choices and the Figure 8
// conflict/capacity split — drift from the primary's.
func TestNoteBypassUseKeepsShadowAligned(t *testing.T) {
	c := New(Config{Entries: 4, Ways: 2, Insert: InsertUseBased, Replace: ReplaceUseBased,
		Index: IndexRoundRobin, ClassifyMisses: true})
	if c.shadow == nil {
		t.Fatal("set-associative classify cache must have a shadow")
	}
	set := c.Allocate(1, 3)
	c.Produce(1, set, 3, false, false, 10)
	c.NoteBypassUse(1, set)
	pu, _, ok := c.lookup(1, set)
	if !ok || pu != 2 {
		t.Fatalf("primary uses = %d (ok=%v), want 2", pu, ok)
	}
	su, _, ok := c.shadow.lookup(1)
	if !ok || su != pu {
		t.Fatalf("shadow uses = %d (ok=%v), want %d (aligned with primary)", su, ok, pu)
	}

	// The divergence case: a value evicted from the primary by a set
	// conflict but still resident in the fully-associative shadow must
	// still see the bypass use, exactly as Read/Fill/Free forward
	// unconditionally. Pregs 0,2,4 all map to set 0 under preg indexing;
	// the 4-entry shadow holds all three.
	c2 := New(Config{Entries: 4, Ways: 2, Insert: InsertAlways, Replace: ReplaceLRU,
		Index: IndexPReg, ClassifyMisses: true})
	for _, p := range []PReg{0, 2, 4} {
		c2.Allocate(p, 3)
		c2.Produce(p, 0, 3, false, false, uint64(10+p))
	}
	if _, _, ok := c2.lookup(0, 0); ok {
		t.Fatal("preg 0 should have been evicted from the conflicting set")
	}
	if _, _, ok := c2.shadow.lookup(0); !ok {
		t.Fatal("preg 0 should still be resident in the FA shadow")
	}
	c2.NoteBypassUse(0, 0)
	if su, _, _ := c2.shadow.lookup(0); su != 2 {
		t.Fatalf("shadow uses = %d after bypass use of an evicted value, want 2", su)
	}
}

// Regression: an in-place refresh (a fill racing a still-resident entry)
// ends the old residency and must finalize it, or Residencies,
// ResidencyCycles, and CachedNeverRead undercount (Table 2 row 4 /
// Figure 10).
func TestFillRefreshFinalizesResidency(t *testing.T) {
	c := tiny(InsertUseBased, ReplaceUseBased, IndexRoundRobin)
	set := c.Allocate(1, 2)
	c.Produce(1, set, 2, false, false, 10)
	c.Read(1, set, 15)
	c.Fill(1, set, 30) // refreshes the resident entry in place
	if c.Stats.Residencies != 1 || c.Stats.ResidencyCycles != 20 {
		t.Fatalf("after refresh: residencies=%d cycles=%d, want 1/20",
			c.Stats.Residencies, c.Stats.ResidencyCycles)
	}
	if c.Stats.CachedNeverRead != 0 {
		t.Fatalf("CachedNeverRead = %d, want 0 (first residency served a read)", c.Stats.CachedNeverRead)
	}
	// The refreshed residency served no reads; freeing finalizes it too.
	c.Free(1, 40)
	if c.Stats.Residencies != 2 || c.Stats.ResidencyCycles != 30 {
		t.Fatalf("after free: residencies=%d cycles=%d, want 2/30",
			c.Stats.Residencies, c.Stats.ResidencyCycles)
	}
	if c.Stats.CachedNeverRead != 1 {
		t.Fatalf("CachedNeverRead = %d, want 1 (refresh residency unread)", c.Stats.CachedNeverRead)
	}
	// Occupancy must be unperturbed by the refresh (still one residency at
	// a time, zero after the free).
	if c.Stats.occupied != 0 {
		t.Fatalf("occupied = %d after free, want 0", c.Stats.occupied)
	}
}

// Regression: out-of-range physical registers must panic instead of
// silently aliasing another register's lifecycle state via modulo.
func TestOutOfRangePRegPanics(t *testing.T) {
	c := New(Config{Entries: 4, Ways: 2, MaxPRegs: 16})
	for _, p := range []PReg{16, 100, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PReg %d: expected panic, got none", p)
				}
			}()
			c.Allocate(p, 1)
		}()
	}
	// In-range pregs keep working.
	if set := c.Allocate(15, 1); set < 0 || set >= c.nsets {
		t.Fatalf("in-range allocation failed: set %d", set)
	}
}

func TestRoundRobinIndexCyclesSets(t *testing.T) {
	c := New(Config{Entries: 8, Ways: 2, Insert: InsertAlways, Replace: ReplaceLRU, Index: IndexRoundRobin})
	seen := map[int]int{}
	for p := PReg(0); p < 8; p++ {
		seen[c.Allocate(p, 1)]++
	}
	if len(seen) != 4 {
		t.Fatalf("round-robin used %d sets, want all 4", len(seen))
	}
	for s, n := range seen {
		if n != 2 {
			t.Errorf("set %d assigned %d values, want 2", s, n)
		}
	}
}

func TestPRegIndexDerivesFromTag(t *testing.T) {
	c := New(Config{Entries: 8, Ways: 2, Insert: InsertAlways, Replace: ReplaceLRU, Index: IndexPReg})
	if got := c.Allocate(5, 1); got != 1 {
		t.Errorf("preg 5 -> set %d, want 1 (5 mod 4)", got)
	}
	if got := c.Allocate(8, 1); got != 0 {
		t.Errorf("preg 8 -> set %d, want 0", got)
	}
}

func TestMinimumIndexPicksLeastLoaded(t *testing.T) {
	c := New(Config{Entries: 8, Ways: 2, Insert: InsertAlways, Replace: ReplaceLRU, Index: IndexMinimum})
	s1 := c.Allocate(1, 6) // all loads zero: set 0
	if s1 != 0 {
		t.Fatalf("first allocation to set %d, want 0", s1)
	}
	s2 := c.Allocate(2, 1) // set 0 loaded with 6: pick set 1
	if s2 == s1 {
		t.Fatal("minimum policy reused the loaded set")
	}
	// Releasing the big value at retire frees its set again.
	c.Retire(1)
	s3 := c.Allocate(3, 1)
	if s3 != 0 {
		t.Fatalf("after release, allocation to set %d, want 0", s3)
	}
}

func TestFilteredRRSkipsHighUseSets(t *testing.T) {
	// 4 sets, 2 ways, skip threshold 1 (ways/2). A high-use value (>5
	// predicted uses) in a set makes round-robin skip it.
	c := New(Config{Entries: 8, Ways: 2, Insert: InsertAlways, Replace: ReplaceUseBased, Index: IndexFilteredRR})
	s0 := c.Allocate(1, 7) // high-use in set 0
	if s0 != 0 {
		t.Fatalf("first allocation to set %d, want 0", s0)
	}
	// Next allocations cycle 1,2,3 then wrap — skipping set 0.
	want := []int{1, 2, 3, 1, 2, 3}
	for i, w := range want {
		got := c.Allocate(PReg(2+i), 1)
		if got != w {
			t.Fatalf("allocation %d to set %d, want %d", i, got, w)
		}
	}
	// After the high-use value retires, set 0 is assignable again.
	c.Retire(1)
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[c.Allocate(PReg(20+i), 1)] = true
	}
	if !seen[0] {
		t.Fatal("set 0 still skipped after high-use release")
	}
}

func TestFilteredRRAllSetsLoadedFallsBack(t *testing.T) {
	// When every set exceeds the threshold the policy must still assign.
	c := New(Config{Entries: 4, Ways: 2, Insert: InsertAlways, Replace: ReplaceUseBased, Index: IndexFilteredRR})
	c.Allocate(1, 7)
	c.Allocate(2, 7)
	set := c.Allocate(3, 1)
	if set != 0 && set != 1 {
		t.Fatalf("fallback assignment to set %d", set)
	}
}

func TestMissClassification(t *testing.T) {
	// 4-entry 2-way with shadow: conflict = miss that the FA shadow hits.
	c := New(Config{Entries: 4, Ways: 2, Insert: InsertAlways, Replace: ReplaceLRU,
		Index: IndexPReg, ClassifyMisses: true})
	// Three values all mapping to set 0 under preg indexing (pregs 0,2,4):
	// the set overflows while the 4-entry FA shadow does not.
	for _, p := range []PReg{0, 2, 4} {
		c.Allocate(p, 1)
		c.Produce(p, int(p)%2, 1, false, false, uint64(10+p))
	}
	if c.Read(0, 0, 20) {
		t.Fatal("preg 0 should have been evicted by the set conflict")
	}
	if c.Stats.MissBy[MissConflict] != 1 {
		t.Fatalf("conflict misses = %d, want 1 (shadow FA still holds it)", c.Stats.MissBy[MissConflict])
	}
	// Now overflow the shadow too: 5 live values > 4 entries.
	for _, p := range []PReg{1, 3, 5, 7, 9, 11} {
		c.Allocate(p, 1)
		c.Produce(p, int(p)%2, 1, false, false, uint64(30+p))
	}
	// preg 1 is long gone from both: capacity miss.
	if c.Read(1, 1, 50) {
		t.Fatal("preg 1 should be evicted everywhere")
	}
	if c.Stats.MissBy[MissCapacity] == 0 {
		t.Fatal("expected a capacity miss")
	}
}

func TestOccupancyIntegral(t *testing.T) {
	c := tiny(InsertAlways, ReplaceLRU, IndexRoundRobin)
	c.Allocate(1, 1)
	c.Produce(1, 0, 1, false, false, 10)
	c.Allocate(2, 1)
	c.Produce(2, 1, 1, false, false, 20) // 10 cycles at occupancy 1
	c.Free(1, 30)                        // 10 cycles at occupancy 2
	c.Free(2, 40)                        // 10 cycles at occupancy 1
	c.FinishSampling(50)                 // 10 cycles at occupancy 0
	// Integral = 10*0 + 10*1 + 10*2 + 10*1 + 10*0 = 40.
	if c.Stats.OccupancyInt != 40 {
		t.Fatalf("occupancy integral = %d, want 40", c.Stats.OccupancyInt)
	}
	if got := c.Stats.MeanOccupancy(50); got != 0.8 {
		t.Fatalf("mean occupancy = %v, want 0.8", got)
	}
}

func TestDerivedStats(t *testing.T) {
	c := tiny(InsertUseBased, ReplaceUseBased, IndexRoundRobin)
	// Value A: cached, read twice, freed.
	sa := c.Allocate(1, 2)
	c.Produce(1, sa, 2, false, false, 10)
	c.Read(1, sa, 11)
	c.Read(1, sa, 12)
	c.Free(1, 20)
	// Value B: filtered, never cached.
	sb := c.Allocate(2, 1)
	c.Produce(2, sb, 0, false, true, 15)
	c.Free(2, 25)
	s := &c.Stats
	if s.ValuesFreed != 2 || s.NeverCached != 1 {
		t.Fatalf("freed=%d neverCached=%d, want 2/1", s.ValuesFreed, s.NeverCached)
	}
	if got := s.FracNeverCached(); got != 0.5 {
		t.Errorf("FracNeverCached = %v, want 0.5", got)
	}
	if got := s.CacheCount(); got != 0.5 {
		t.Errorf("CacheCount = %v, want 0.5 (1 insertion / 2 values)", got)
	}
	if got := s.ReadsPerCachedValue(); got != 2 {
		t.Errorf("ReadsPerCachedValue = %v, want 2", got)
	}
	if got := s.FracWritesFiltered(); got != 0.5 {
		t.Errorf("FracWritesFiltered = %v, want 0.5", got)
	}
	if s.String() == "" {
		t.Error("empty stats render")
	}
}

func TestNonPowerOfTwoSizeWithDecoupledIndexing(t *testing.T) {
	// Section 4.1: decoupled indexing trivially enables non-power-of-two
	// caches. 48 entries, 2 ways = 24 sets.
	c := New(Config{Entries: 48, Ways: 2, Insert: InsertUseBased, Replace: ReplaceUseBased, Index: IndexFilteredRR})
	if c.nsets != 24 {
		t.Fatalf("sets = %d, want 24", c.nsets)
	}
	for p := PReg(0); p < 100; p++ {
		set := c.Allocate(p, int(p)%8)
		if set < 0 || set >= 24 {
			t.Fatalf("set %d out of range", set)
		}
		c.Produce(p, set, 1, false, false, uint64(p))
	}
}

// Property: after any sequence of allocate/produce/read/free operations,
// the number of valid entries never exceeds the capacity, and every
// resident preg is live.
func TestInvariantsUnderRandomOperations(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Entries: 8, Ways: 2, Insert: InsertUseBased, Replace: ReplaceUseBased, Index: IndexFilteredRR, MaxPRegs: 16})
		sets := map[PReg]int{}
		live := map[PReg]bool{}
		now := uint64(0)
		for _, op := range ops {
			now++
			p := PReg(op % 16)
			switch (op / 16) % 4 {
			case 0:
				if !live[p] {
					sets[p] = c.Allocate(p, int(op)%9)
					live[p] = true
				}
			case 1:
				if live[p] {
					c.Produce(p, sets[p], int(op)%8, op%9 == 8, op%2 == 0, now)
				}
			case 2:
				if live[p] {
					c.Read(p, sets[p], now)
				}
			case 3:
				if live[p] {
					c.Free(p, now)
					live[p] = false
				}
			}
			if c.Stats.occupied > 8 || c.Stats.occupied < 0 {
				return false
			}
		}
		// Every resident entry must belong to a live preg.
		for p := PReg(0); p < 16; p++ {
			if _, _, ok := c.lookup(p, sets[p]); ok && !live[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: miss classification categories always sum to total misses.
func TestMissCategoriesSumProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Entries: 8, Ways: 2, Insert: InsertUseBased, Replace: ReplaceUseBased, Index: IndexRoundRobin, MaxPRegs: 32, ClassifyMisses: true})
		sets := map[PReg]int{}
		live := map[PReg]bool{}
		produced := map[PReg]bool{}
		now := uint64(0)
		for _, op := range ops {
			now++
			p := PReg(op % 32)
			switch (op / 32) % 4 {
			case 0:
				if !live[p] {
					sets[p] = c.Allocate(p, int(op)%9)
					live[p], produced[p] = true, false
				}
			case 1:
				if live[p] && !produced[p] {
					c.Produce(p, sets[p], int(op)%8, false, op%2 == 0, now)
					produced[p] = true
				}
			case 2:
				if live[p] && produced[p] {
					if !c.Read(p, sets[p], now) {
						c.Fill(p, sets[p], now+2)
					}
				}
			case 3:
				if live[p] {
					c.Free(p, now)
					live[p] = false
				}
			}
		}
		var sum uint64
		for _, m := range c.Stats.MissBy {
			sum += m
		}
		return sum == c.Stats.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{InsertAlways.String(), "always"},
		{InsertNonBypass.String(), "non-bypass"},
		{InsertUseBased.String(), "use-based"},
		{ReplaceLRU.String(), "lru"},
		{ReplaceUseBased.String(), "use-based"},
		{IndexPReg.String(), "preg"},
		{IndexRoundRobin.String(), "round-robin"},
		{IndexMinimum.String(), "minimum"},
		{IndexFilteredRR.String(), "filtered"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("stringer: got %q want %q", c.got, c.want)
		}
	}
}
