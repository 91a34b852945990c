package core

import "regcache/internal/obs"

// This file implements the access-time behaviour of the register cache:
// produce (insertion policy), read (hit/miss with classification), fill,
// bypass-use accounting, and invalidate-on-free.

// MissKind classifies a register cache miss (Figure 8).
type MissKind int

// Miss classification, per Figure 8: a miss on a value whose initial write
// was filtered; a miss on an evicted value that a fully-associative cache
// of the same size would also have evicted (capacity); or a miss a
// fully-associative cache would have avoided (conflict).
const (
	MissFiltered MissKind = iota
	MissCapacity
	MissConflict
	numMissKinds
)

// NumMissKinds is the number of miss classes (the MissBy array length),
// exported for aggregators that break misses down per class.
const NumMissKinds = int(numMissKinds)

func (k MissKind) String() string {
	switch k {
	case MissFiltered:
		return "filtered"
	case MissCapacity:
		return "capacity"
	case MissConflict:
		return "conflict"
	}
	return "miss?"
}

// Produce presents a just-computed value to the cache at writeback.
// remaining is the use count left after bypass-stage-1 consumers were
// satisfied (only those can affect the write decision, Section 3.1);
// bypassed reports whether any stage-1 consumer was satisfied (the
// non-bypass heuristic's trigger); pinned marks saturated predictions.
// It returns true when the value was written into the cache.
func (c *Cache) Produce(p PReg, set int, remaining int, pinned bool, bypassed bool, now uint64) bool {
	st := c.state(p)
	st.produced = true
	insert := true
	switch c.cfg.Insert {
	case InsertAlways:
	case InsertNonBypass:
		insert = !bypassed
	case InsertUseBased:
		insert = pinned || remaining > 0
	}
	c.Stats.Produced++
	if !insert {
		c.Stats.WritesFiltered++
		if c.tracer != nil {
			c.tracer.TraceCache(obs.CacheEvent{Cycle: now, Kind: obs.CacheWriteFiltered,
				PReg: int32(p), Set: int16(set), Uses: int16(remaining), MissKind: -1, Pinned: pinned})
		}
		return false
	}
	c.insert(p, set, remaining, pinned, now, false)
	if c.shadow != nil {
		c.shadow.insert(p, remaining, pinned, now)
	}
	return true
}

// insert places a value into the given set, selecting a victim if needed.
func (c *Cache) insert(p PReg, set int, uses int, pinned bool, now uint64, isFill bool) {
	st := c.state(p)
	ways := c.sets[set]

	// Duplicate insertion of the same preg refreshes in place (a fill
	// racing a still-resident entry). The old residency ends here, so its
	// statistics must be finalized before the slot is overwritten. A value
	// has at most one residency cache-wide, tracked by its way index.
	slot := -1
	if st.inserted {
		if e := &ways[st.way]; e.valid && e.preg == p {
			slot = int(st.way)
			c.finishResidency(e, now)
		}
	}
	if slot < 0 && int(c.liveWays[set]) < len(ways) {
		for i := range ways {
			if !ways[i].valid {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		slot = c.victim(set)
		c.evict(set, slot, now)
	}
	if !ways[slot].valid {
		c.Stats.occupied++
		c.liveWays[set]++
	}
	ways[slot] = entry{preg: p, valid: true, uses: uses, pinned: pinned, lru: now, born: now}
	c.noteOccupancy(now)
	st.inserted = true
	st.way = int16(slot)
	st.everCached = true
	st.insertions++
	c.Stats.Writes++
	if isFill {
		c.Stats.Fills++
	} else {
		c.Stats.InitialWrites++
	}
	if c.tracer != nil {
		kind := obs.CacheWrite
		if isFill {
			kind = obs.CacheFill
		}
		c.tracer.TraceCache(obs.CacheEvent{Cycle: now, Kind: kind,
			PReg: int32(p), Set: int16(set), Uses: int16(uses), MissKind: -1, Pinned: pinned})
		if pinned {
			c.tracer.TraceCache(obs.CacheEvent{Cycle: now, Kind: obs.CachePin,
				PReg: int32(p), Set: int16(set), Uses: int16(uses), MissKind: -1, Pinned: true})
		}
	}
}

// victim selects the replacement way within a full set.
func (c *Cache) victim(set int) int {
	ways := c.sets[set]
	best := 0
	switch c.cfg.Replace {
	case ReplaceLRU:
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[best].lru {
				best = i
			}
		}
	case ReplaceRandom:
		best = randomWay(&c.rngState, len(ways))
	case ReplaceUseBased:
		for i := 1; i < len(ways); i++ {
			bu, iu := effUses(&ways[best]), effUses(&ways[i])
			if iu < bu || (iu == bu && ways[i].lru < ways[best].lru) {
				best = i
			}
		}
	}
	c.Stats.Victims++
	if effUses(&ways[best]) == 0 {
		c.Stats.VictimsZeroUse++
	}
	return best
}

// rngSeed starts every ReplaceRandom xorshift stream.
const rngSeed = 0x9e3779b97f4a7c15

// randomWay advances the xorshift* state and draws a way in [0, ways).
func randomWay(state *uint64, ways int) int {
	*state ^= *state >> 12
	*state ^= *state << 25
	*state ^= *state >> 27
	return int((*state * 0x2545f4914f6cdd1d) >> 33 % uint64(ways))
}

// effUses is the remaining-use count for victim comparison; pinned entries
// compare as effectively infinite.
func effUses(e *entry) int {
	if e.pinned {
		return 1 << 20
	}
	return e.uses
}

// evict removes the entry at (set, slot), finalizing its statistics.
func (c *Cache) evict(set, slot int, now uint64) {
	e := &c.sets[set][slot]
	if !e.valid {
		return
	}
	st := c.state(e.preg)
	st.inserted = false
	c.finishResidency(e, now)
	c.Stats.Evictions++
	if c.tracer != nil {
		// Uses carries the remaining-use count at eviction: the stream
		// behind the paper's Figure 5 distribution.
		c.tracer.TraceCache(obs.CacheEvent{Cycle: now, Kind: obs.CacheEvict,
			PReg: int32(e.preg), Set: int16(set), Uses: int16(e.uses), MissKind: -1, Pinned: e.pinned})
	}
	e.valid = false
	c.Stats.occupied--
	c.liveWays[set]--
	c.noteOccupancy(now)
}

// finishResidency accumulates the end-of-residency statistics.
func (c *Cache) finishResidency(e *entry, now uint64) {
	c.Stats.ResidencyCycles += now - e.born
	c.Stats.Residencies++
	if e.reads == 0 {
		c.Stats.CachedNeverRead++
	}
}

// Read looks up p in the cache (the set travels with the rename mapping
// under decoupled indexing). On a hit, the remaining-use count is
// decremented (unless pinned) and LRU state updates. On a miss, the miss
// is classified and counted; the caller fetches from the backing file and
// then calls Fill.
func (c *Cache) Read(p PReg, set int, now uint64) bool {
	c.Stats.Reads++
	st := c.state(p)
	// The shadow sees every read, hit or miss, so its use counts and
	// replacement order track a fully-associative cache's.
	inShadow := c.shadow != nil && c.shadow.read(p, now)
	if st.inserted {
		e := &c.sets[set][st.way]
		if e.valid && e.preg == p {
			e.lru = now
			e.reads++
			if !e.pinned && e.uses > 0 {
				e.uses--
			}
			st.reads++
			c.Stats.Hits++
			if c.tracer != nil {
				c.tracer.TraceCache(obs.CacheEvent{Cycle: now, Kind: obs.CacheHit,
					PReg: int32(p), Set: int16(set), Uses: int16(e.uses), MissKind: -1, Pinned: e.pinned})
			}
			return true
		}
	}
	c.Stats.Misses++
	kind := c.classifyMiss(st, inShadow)
	if c.tracer != nil {
		c.tracer.TraceCache(obs.CacheEvent{Cycle: now, Kind: obs.CacheMiss,
			PReg: int32(p), Set: int16(set), MissKind: int8(kind)})
	}
	return false
}

// classifyMiss attributes a miss per Figure 8 and returns the kind: a
// value never written is a filtered miss; otherwise the miss is a conflict
// when the same-size fully-associative shadow holds the value and a
// capacity miss when it does not.
func (c *Cache) classifyMiss(st *pregState, inShadow bool) MissKind {
	kind := MissConflict
	if !st.everCached || st.insertions == 0 {
		kind = MissFiltered
	} else if c.shadow != nil && !inShadow {
		kind = MissCapacity
	}
	c.Stats.MissBy[kind]++
	return kind
}

// Fill installs a value fetched from the backing file after a miss, with
// FillDefault remaining uses (Section 3.3: the backing file keeps no use
// information, and any given use is most likely the last).
func (c *Cache) Fill(p PReg, set int, now uint64) {
	st := c.state(p)
	if !st.live {
		return // freed (squashed) while the fill was in flight
	}
	c.insert(p, set, c.cfg.FillDefault, false, now, true)
	if c.shadow != nil {
		c.shadow.insert(p, c.cfg.FillDefault, false, now)
	}
}

// NoteBypassUse records that a consumer obtained p from the bypass network
// after the value was already written into the cache (bypass stage 2 and
// post-fill bypasses): the resident remaining-use count decrements so the
// cache's view of outstanding uses stays consistent (Section 3.3).
func (c *Cache) NoteBypassUse(p PReg, set int) {
	if st := c.state(p); st.inserted {
		e := &c.sets[set][st.way]
		if e.valid && e.preg == p {
			if !e.pinned && e.uses > 0 {
				e.uses--
			}
			if c.tracer != nil {
				c.tracer.TraceCache(obs.CacheEvent{Kind: obs.CacheBypassUse,
					PReg: int32(p), Set: int16(set), Uses: int16(e.uses), MissKind: -1, Pinned: e.pinned})
			}
		}
	}
	// The bypass use happened regardless of primary residency: the shadow
	// must see the same decrement or its use-based victim choices diverge
	// and skew the conflict/capacity miss split (Figure 8).
	if c.shadow != nil {
		c.shadow.bypassUse(p)
	}
}

// Free invalidates p's entry when the physical register is freed (required
// for correctness: a reallocated register must never hit on a stale value)
// and finalizes the per-value statistics. It also covers squash-freed
// registers from wrong-path renames.
func (c *Cache) Free(p PReg, now uint64) {
	st := c.state(p)
	if !st.live {
		return
	}
	c.releaseIndex(st)
	setIdx := int(st.set)
	if c.cfg.Index == IndexPReg {
		setIdx = int(p) % c.nsets
	}
	if st.inserted {
		e := &c.sets[setIdx][st.way]
		if e.valid && e.preg == p {
			c.finishResidency(e, now)
			if c.tracer != nil {
				c.tracer.TraceCache(obs.CacheEvent{Cycle: now, Kind: obs.CacheInvalidate,
					PReg: int32(p), Set: int16(st.set), Uses: int16(e.uses), MissKind: -1, Pinned: e.pinned})
			}
			e.valid = false
			c.Stats.occupied--
			c.liveWays[setIdx]--
			c.noteOccupancy(now)
			c.Stats.Invalidations++
		}
	}
	if st.produced {
		c.Stats.ValuesFreed++
		c.Stats.InsertionsPerValue += uint64(st.insertions)
		if !st.everCached {
			c.Stats.NeverCached++
		}
	}
	st.live = false
	st.inserted = false
	if c.shadow != nil {
		c.shadow.free(p)
	}
}

// noteOccupancy integrates the occupancy-over-time statistic.
func (c *Cache) noteOccupancy(now uint64) {
	s := &c.Stats
	if now > s.lastOccCycle {
		s.OccupancyInt += uint64(s.prevOccupied) * (now - s.lastOccCycle)
		s.lastOccCycle = now
	}
	s.prevOccupied = s.occupied
}

// FinishSampling closes the occupancy integral at the end of simulation.
func (c *Cache) FinishSampling(now uint64) { c.noteOccupancy(now) }

// Occupied returns the current number of valid entries (for tests).
func (c *Cache) Occupied() int { return c.Stats.occupied }

// Lookup probes for p without any side effects (no LRU update, no use
// decrement, no statistics). Used by tests and by the pipeline to model
// the insertion-time bypass check.
func (c *Cache) Lookup(p PReg, set int) (uses int, pinned, ok bool) {
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
