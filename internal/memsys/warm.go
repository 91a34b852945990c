package memsys

// Functional warming for interval-parallel simulation. The hierarchy's
// dominant history-dependent state is its tag arrays: a 1 MB L2 takes on
// the order of 100k instructions of detailed simulation to stream a
// working set in, far longer than the predictors a short warm-up window
// re-converges. The capture pre-pass therefore replays the correct-path
// access stream (fetch PCs, load/store addresses) through a timing-free
// warmer and snapshots the resulting tag state at each checkpoint; an
// interval pipeline restores the snapshot and starts with the caches
// holding what the serial machine would hold, modulo wrong-path pollution
// and fill-timing effects, which the normal warm-up window covers.
//
// Warm touches advance tag, LRU, victim-buffer, and prefetch-stream state
// exactly as an immediately-completing access would; they do not touch
// statistics or the in-flight fill maps, which belong to the measured
// machine. Snapshots normalize LRU timestamps to per-set ranks so that
// restored recency ordering is preserved while every access the measured
// run makes outranks the warmed history almost immediately.

import (
	"fmt"
	"sort"
)

// WarmFetch functionally warms the instruction side with a fetch at pc.
func (h *Hierarchy) WarmFetch(pc uint64) {
	h.warmClock++
	h.warm(h.l1i, pc, &h.lastFetchLine)
}

// WarmLoad functionally warms the data side with a load from addr.
func (h *Hierarchy) WarmLoad(addr uint64) {
	h.warmClock++
	h.warm(h.l1d, addr, &h.lastMissLine)
}

// WarmStore functionally warms the data side with a store to addr (the
// store buffer write-allocates, so the tag-state effect equals a load's).
func (h *Hierarchy) WarmStore(addr uint64) {
	h.warmClock++
	h.warm(h.l1d, addr, &h.lastMissLine)
}

// warm mirrors Hierarchy.access without timing or statistics: L1 probe,
// L2 probe on miss, immediate fills, and the unit-stride prefetcher.
func (h *Hierarchy) warm(l1 *Cache, addr uint64, lastLine *uint64) {
	now := h.warmClock
	if l1.touch(addr, now) {
		return
	}
	la := l1.lineAddr(addr)
	h.l2.touch(addr, now)
	if la == *lastLine+1 {
		for i := 1; i <= PrefetchDegree; i++ {
			next := (la + uint64(i)) << l1.lineShift
			if !l1.Contains(next) {
				l1.install(l1.lineAddr(next), now)
				if !h.l2.Contains(next) {
					h.l2.install(h.l2.lineAddr(next), now)
				}
			}
		}
	}
	*lastLine = la
}

// touch is a timing-free functional access: a tag hit refreshes LRU, a
// victim-buffer hit promotes, and a miss installs the line immediately.
// It reports whether the line was already present (array or victim) and
// leaves statistics and in-flight tracking untouched.
func (c *Cache) touch(addr, now uint64) bool {
	la := c.lineAddr(addr)
	set := c.sets[la&uint64(len(c.sets)-1)]
	tag := la / uint64(len(c.sets))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = now
			return true
		}
	}
	if c.victim != nil && c.victim.remove(la) {
		c.install(la, now)
		return true
	}
	c.install(la, now)
	return false
}

// WarmState is a functional snapshot of the hierarchy's tag state: the
// three cache levels (lines with per-set LRU ranks), their victim
// buffers, and the prefetch stream detectors. It is immutable once taken
// and safe to restore into any number of hierarchies with the same
// geometry.
type WarmState struct {
	l1i, l1d, l2 cacheState
	lastMiss     uint64
	lastFetch    uint64
}

type cacheState struct {
	nsets, ways int
	lines       []line   // nsets*ways, lru = rank within its set
	victim      []uint64 // FIFO order, oldest first; nil when disabled
}

// Snapshot captures the hierarchy's functional tag state.
func (h *Hierarchy) Snapshot() *WarmState {
	return &WarmState{
		l1i:       snapshotCache(h.l1i),
		l1d:       snapshotCache(h.l1d),
		l2:        snapshotCache(h.l2),
		lastMiss:  h.lastMissLine,
		lastFetch: h.lastFetchLine,
	}
}

func snapshotCache(c *Cache) cacheState {
	ways := len(c.sets[0])
	st := cacheState{nsets: len(c.sets), ways: ways, lines: make([]line, len(c.sets)*ways)}
	idx := make([]int, 0, ways)
	for si, set := range c.sets {
		out := st.lines[si*ways : (si+1)*ways]
		copy(out, set)
		// Normalize LRU to the line's recency rank within its set so the
		// restored ordering survives the jump from the warm clock to the
		// measured machine's cycle clock.
		idx = idx[:0]
		for i := range out {
			if out[i].valid {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return out[idx[a]].lru < out[idx[b]].lru })
		for rank, i := range idx {
			out[i].lru = uint64(rank)
		}
	}
	if c.victim != nil {
		st.victim = append([]uint64(nil), c.victim.order...)
	}
	return st
}

// Restore overwrites the hierarchy's tag state with the snapshot. The
// geometries must match (same configuration); in-flight fills, the store
// buffer, and statistics are left untouched (fresh hierarchies have none).
func (h *Hierarchy) Restore(ws *WarmState) {
	restoreCache(h.l1i, ws.l1i)
	restoreCache(h.l1d, ws.l1d)
	restoreCache(h.l2, ws.l2)
	h.lastMissLine = ws.lastMiss
	h.lastFetchLine = ws.lastFetch
}

func restoreCache(c *Cache, st cacheState) {
	if len(c.sets) != st.nsets || len(c.sets[0]) != st.ways {
		panic(fmt.Sprintf("memsys: restore into %dx%d cache from %dx%d snapshot",
			len(c.sets), len(c.sets[0]), st.nsets, st.ways))
	}
	for si := range c.sets {
		copy(c.sets[si], st.lines[si*st.ways:(si+1)*st.ways])
	}
	if c.victim != nil && st.victim != nil {
		c.victim.order = append(c.victim.order[:0], st.victim...)
	}
}
