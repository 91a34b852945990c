package core

import "math/bits"

// faShadow is the same-size fully-associative cache a set-associative
// Cache consults to split conflict from capacity misses (Figure 8): a miss
// the shadow would have hit is a conflict miss. It is a measurement
// structure, not modelled hardware, and keeps residency only, with no
// statistics, tracer, index policy or occupancy. The primary forwards its
// insertions (it alone decides whether a produced value is written),
// fills, reads, bypass uses and frees.
//
// A way's key packs its replacement priority so that one strict-< pass
// picks the victim Cache.victim would: effUses<<lruBits | lru under
// use-based replacement (fewest effective uses, then oldest touch, then
// lowest way), the touch cycle alone under LRU. That holds while use
// counts stay within maxUses, which New enforces, so that pinnedUses sorts
// above every unpinned count, and while touch cycles stay below
// 1<<lruBits.
type faShadow struct {
	replace ReplacePolicy

	key    []uint64 // per way: packed replacement priority
	preg   []PReg   // per way: resident value
	uses   []uint8  // per way: remaining-use count
	pinned []bool   // per way: count frozen at the saturated prediction

	vacant []uint64 // bit w set: way w holds no value
	way    []int32  // per preg: resident way, or -1

	rng uint64 // xorshift state for ReplaceRandom
}

const (
	lruBits    = 52  // touch-cycle field of a packed key
	pinnedUses = 256 // effective uses of a pinned entry, above maxUses
)

func newFAShadow(entries, npregs int, replace ReplacePolicy) *faShadow {
	s := &faShadow{
		replace: replace,
		key:     make([]uint64, entries),
		preg:    make([]PReg, entries),
		uses:    make([]uint8, entries),
		pinned:  make([]bool, entries),
		vacant:  make([]uint64, (entries+63)/64),
		way:     make([]int32, npregs),
		rng:     rngSeed,
	}
	for w := 0; w < entries; w++ {
		s.vacant[w/64] |= 1 << (w % 64)
	}
	for p := range s.way {
		s.way[p] = -1
	}
	return s
}

// allocate starts p's new lifetime non-resident, as Cache.Allocate resets
// its per-preg state.
func (s *faShadow) allocate(p PReg) { s.way[p] = -1 }

// insert writes p with the given use state, refreshing its way when it is
// already resident.
func (s *faShadow) insert(p PReg, uses int, pinned bool, now uint64) {
	w := int(s.way[p])
	if w < 0 {
		if w = s.freeWay(); w >= 0 {
			s.vacant[w/64] &^= 1 << (w % 64)
		} else {
			w = s.victim()
			s.way[s.preg[w]] = -1
		}
	}
	s.preg[w], s.uses[w], s.pinned[w] = p, uint8(uses), pinned
	s.key[w] = s.keyOf(w, now)
	s.way[p] = int32(w)
}

// freeWay returns the lowest free way, or -1 when every way is occupied.
func (s *faShadow) freeWay() int {
	for i, b := range s.vacant {
		if b != 0 {
			return i*64 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// victim picks the way to replace in a full shadow.
func (s *faShadow) victim() int {
	if s.replace == ReplaceRandom {
		return randomWay(&s.rng, len(s.key))
	}
	best, bestKey := 0, s.key[0]
	for w, k := range s.key {
		if k < bestKey {
			best, bestKey = w, k
		}
	}
	return best
}

// keyOf packs way w's replacement priority with touch cycle now.
func (s *faShadow) keyOf(w int, now uint64) uint64 {
	if s.replace != ReplaceUseBased {
		return now
	}
	uses := uint64(s.uses[w])
	if s.pinned[w] {
		uses = pinnedUses
	}
	return uses<<lruBits | now
}

// read reports whether p is resident; a hit consumes one use and touches
// the way, as a Cache hit does.
func (s *faShadow) read(p PReg, now uint64) bool {
	w := int(s.way[p])
	if w < 0 {
		return false
	}
	if !s.pinned[w] && s.uses[w] > 0 {
		s.uses[w]--
	}
	s.key[w] = s.keyOf(w, now)
	return true
}

// bypassUse consumes one of a resident p's uses without touching its way.
func (s *faShadow) bypassUse(p PReg) {
	w := int(s.way[p])
	if w < 0 || s.pinned[w] || s.uses[w] == 0 {
		return
	}
	s.uses[w]--
	if s.replace == ReplaceUseBased {
		s.key[w] -= 1 << lruBits
	}
}

// free invalidates p's way, if it has one.
func (s *faShadow) free(p PReg) {
	if w := int(s.way[p]); w >= 0 {
		s.vacant[w/64] |= 1 << (w % 64)
		s.way[p] = -1
	}
}
