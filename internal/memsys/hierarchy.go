package memsys

// The Table 1 memory system, the one every pipeline builds.
const (
	L1Bytes         = 32 << 10 // each of the split L1I and L1D
	L1Ways          = 2
	L1LineBytes     = 64
	L2Bytes         = 1 << 20 // unified
	L2Ways          = 4
	L2LineBytes     = 128
	VictimEntries   = 64  // victim/prefetch buffer entries on each level
	L2Latency       = 12  // cycles for an L1-miss/L2-hit fill
	MemLatency      = 180 // cycles for an L2-miss fill
	StoreBufEntries = 16
	PrefetchDegree  = 2 // lines fetched ahead by the unit-stride prefetcher
)

// Hierarchy is the full memory system. All methods take the current cycle;
// the model is a latency oracle with tag state (see the package comment).
type Hierarchy struct {
	l1i *Cache
	l1d *Cache
	l2  *Cache

	sbuf          []sbufEntry
	lastMissLine  uint64 // unit-stride detector state (D-side)
	lastFetchLine uint64
	warmClock     uint64 // orders functional warm touches (see warm.go)

	// Statistics.
	Loads, Stores  uint64
	StoreBufStalls uint64
	PrefetchIssued uint64
}

type sbufEntry struct {
	line  uint64
	ready uint64 // cycle the entry finishes writing through to the L1D
}

// New builds the Table 1 hierarchy, cold.
func New() *Hierarchy {
	l1 := CacheConfig{SizeBytes: L1Bytes, Ways: L1Ways, LineBytes: L1LineBytes, VictimEntries: VictimEntries}
	return &Hierarchy{
		l1i: NewCache(l1),
		l1d: NewCache(l1),
		l2:  NewCache(CacheConfig{SizeBytes: L2Bytes, Ways: L2Ways, LineBytes: L2LineBytes, VictimEntries: VictimEntries}),
	}
}

// access walks one L1 level plus the shared L2 and returns the extra
// latency beyond an L1 hit.
func (h *Hierarchy) access(l1 *Cache, addr, now uint64, lastLine *uint64) int {
	hit, ready := l1.Lookup(addr, now)
	if hit {
		return 0
	}
	if ready > now {
		// An earlier miss to this line is already being filled; merge.
		return int(ready - now)
	}
	la := l1.lineAddr(addr)
	// L2 probe.
	var extra int
	if hit, _ := h.l2.Lookup(addr, now); hit {
		extra = L2Latency
	} else if rdy, ok := h.l2.inflight[h.l2.lineAddr(addr)]; ok && rdy > now {
		extra = int(rdy-now) + L2Latency
		// L2 fill already on the way; L1 fill completes L2Latency later.
	} else {
		extra = MemLatency
		h.l2.StartFill(addr, now+MemLatency)
	}
	l1.StartFill(addr, now+uint64(extra))
	// Opportunistic unit-stride prefetch: on a miss that continues a
	// sequential stream, pull the following lines into the level.
	if la == *lastLine+1 {
		for i := 1; i <= PrefetchDegree; i++ {
			next := (la + uint64(i)) << l1.lineShift
			if !l1.Contains(next) {
				if _, ok := l1.inflight[l1.lineAddr(next)]; !ok {
					lat := L2Latency
					if hit, _ := h.l2.Lookup(next, now); !hit {
						lat = MemLatency
						h.l2.StartFill(next, now+uint64(lat))
					}
					l1.StartFill(next, now+uint64(lat))
					h.PrefetchIssued++
				}
			}
		}
	}
	*lastLine = la
	return extra
}

// LoadLatency returns the extra cycles (beyond the pipelined L1-hit
// load-to-use latency) for a load from addr issued at cycle now. A hit in
// the store buffer forwards at L1 speed.
func (h *Hierarchy) LoadLatency(addr, now uint64) int {
	h.Loads++
	la := h.l1d.lineAddr(addr)
	for i := range h.sbuf {
		if h.sbuf[i].line == la {
			return 0
		}
	}
	return h.access(h.l1d, addr, now, &h.lastMissLine)
}

// FetchLatency returns the extra cycles for an instruction fetch at pc.
func (h *Hierarchy) FetchLatency(pc, now uint64) int {
	return h.access(h.l1i, pc, now, &h.lastFetchLine)
}

// StoreRetire presents a retiring store to the coalescing store buffer.
// It returns false when the buffer is full and cannot accept the store
// (the caller must stall retirement and retry).
func (h *Hierarchy) StoreRetire(addr, now uint64) bool {
	h.Stores++
	la := h.l1d.lineAddr(addr)
	for i := range h.sbuf {
		if h.sbuf[i].line == la {
			return true // coalesced into an existing entry
		}
	}
	h.drain(now)
	if len(h.sbuf) >= StoreBufEntries {
		h.StoreBufStalls++
		return false
	}
	// Write-allocate: the entry completes when the line is in the L1D.
	lat := h.access(h.l1d, addr, now, &h.lastMissLine)
	h.sbuf = append(h.sbuf, sbufEntry{line: la, ready: now + uint64(lat) + 1})
	return true
}

// drain releases store-buffer entries whose writes have completed.
func (h *Hierarchy) drain(now uint64) {
	live := h.sbuf[:0]
	for _, e := range h.sbuf {
		if e.ready > now {
			live = append(live, e)
		}
	}
	h.sbuf = live
}
