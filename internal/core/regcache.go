// Package core implements the paper's primary contribution: a register
// cache with use-based insertion and replacement policies (Section 3) and
// decoupled set indexing (Section 4), alongside the reference policies it
// is evaluated against (LRU and non-bypass caches).
//
// The cache stores physical-register values between the bypass network and
// the backing register file. Each entry carries a remaining-use count
// initialized from a degree-of-use prediction; insertion is skipped when
// the bypass network has already satisfied every predicted consumer, and
// replacement victimizes the entry with the fewest remaining uses.
// Decoupled indexing assigns the cache set at rename time from a policy
// (round-robin, minimum-load, or filtered round-robin) instead of deriving
// it from physical-register tag bits, cutting conflict misses.
package core

import (
	"fmt"

	"regcache/internal/obs"
)

// PReg identifies a physical register (the cache tag under decoupled
// indexing).
type PReg int32

// InsertPolicy selects which produced values are written into the cache.
type InsertPolicy int

// Insertion policies evaluated in the paper.
const (
	InsertAlways    InsertPolicy = iota // LRU reference design: cache everything
	InsertNonBypass                     // Cruz et al.: skip if bypassed to anyone
	InsertUseBased                      // Section 3.1: skip if no predicted uses remain
)

func (p InsertPolicy) String() string {
	switch p {
	case InsertAlways:
		return "always"
	case InsertNonBypass:
		return "non-bypass"
	case InsertUseBased:
		return "use-based"
	}
	return fmt.Sprintf("insert?%d", int(p))
}

// ReplacePolicy selects the victim within a set.
type ReplacePolicy int

// Replacement policies: the two the paper evaluates plus a random baseline
// used by this repo's ablations to calibrate how much LRU itself buys.
const (
	ReplaceLRU      ReplacePolicy = iota // least recently used
	ReplaceUseBased                      // Section 3.2: fewest remaining uses, LRU tiebreak
	ReplaceRandom                        // ablation baseline: arbitrary victim
)

func (p ReplacePolicy) String() string {
	switch p {
	case ReplaceLRU:
		return "lru"
	case ReplaceUseBased:
		return "use-based"
	case ReplaceRandom:
		return "random"
	}
	return fmt.Sprintf("replace?%d", int(p))
}

// IndexScheme selects how values map to cache sets.
type IndexScheme int

// Indexing schemes evaluated in Section 4.2 / Figure 7.
const (
	IndexPReg       IndexScheme = iota // standard: low bits of the physical register tag
	IndexRoundRobin                    // decoupled: sequential set assignment at rename
	IndexMinimum                       // decoupled: set with the fewest total predicted uses
	IndexFilteredRR                    // decoupled: round-robin skipping high-use-loaded sets
)

func (s IndexScheme) String() string {
	switch s {
	case IndexPReg:
		return "preg"
	case IndexRoundRobin:
		return "round-robin"
	case IndexMinimum:
		return "minimum"
	case IndexFilteredRR:
		return "filtered"
	}
	return fmt.Sprintf("index?%d", int(s))
}

// Decoupled reports whether the scheme assigns sets at rename time.
func (s IndexScheme) Decoupled() bool { return s != IndexPReg }

// Config describes one register cache organization and policy set.
type Config struct {
	Entries int // total entries
	Ways    int // associativity; 0 selects fully associative

	Insert  InsertPolicy
	Replace ReplacePolicy
	Index   IndexScheme

	MaxUse         int // saturation point of the remaining-use count, at most 255; predicted counts at this value pin the entry (default 7)
	UnknownDefault int // remaining uses assumed when the predictor declines (default 1)
	FillDefault    int // remaining uses assumed after a miss fill, at most 255 (default 0)

	HighUseCutoff    int // predicted uses beyond which a value is "high-use" for filtered round-robin (default 5, i.e. >5)
	SetSkipThreshold int // high-use values per set above which filtered round-robin skips the set (default ways/2)

	MaxPRegs int // size of the physical register space (default 512)

	ClassifyMisses bool // maintain a shadow fully-associative cache to split conflict from capacity misses
}

// maxUses bounds remaining-use counts: they saturate into a uint8 in the
// pipeline's per-preg state and in the shadow's ways.
const maxUses = 255

func (c Config) withDefaults() Config {
	if c.Entries == 0 {
		c.Entries = 64
	}
	if c.Ways == 0 || c.Ways > c.Entries {
		c.Ways = c.Entries // fully associative
	}
	if c.MaxUse == 0 {
		c.MaxUse = 7
	}
	if c.UnknownDefault == 0 {
		c.UnknownDefault = 1
	}
	if c.HighUseCutoff == 0 {
		c.HighUseCutoff = 5
	}
	if c.SetSkipThreshold == 0 {
		c.SetSkipThreshold = c.Ways / 2
		if c.SetSkipThreshold < 1 {
			c.SetSkipThreshold = 1
		}
	}
	if c.MaxPRegs == 0 {
		c.MaxPRegs = 512
	}
	return c
}

// UseBasedConfig returns the paper's proposed design point: 64-entry,
// two-way set-associative, use-based insertion and replacement, filtered
// round-robin decoupled indexing, max use 7, unknown default 1, fill
// default 0 (Section 5.3).
func UseBasedConfig() Config {
	return Config{
		Entries: 64, Ways: 2,
		Insert: InsertUseBased, Replace: ReplaceUseBased, Index: IndexFilteredRR,
		ClassifyMisses: true,
	}
}

// LRUConfig returns the Yung & Wilhelm reference design at the given
// geometry: every value cached, LRU replacement.
func LRUConfig(entries, ways int) Config {
	return Config{Entries: entries, Ways: ways, Insert: InsertAlways, Replace: ReplaceLRU, Index: IndexRoundRobin, ClassifyMisses: true}
}

// entry is one register cache entry.
type entry struct {
	preg   PReg
	valid  bool
	uses   int    // remaining-use count
	pinned bool   // predicted at MaxUse: count frozen, evicted only by invalidation
	lru    uint64 // last-touch cycle for LRU ordering
	born   uint64 // insertion cycle (entry lifetime statistic)
	reads  uint64 // hits served by this residency
}

// pregState tracks per-value lifecycle information used for statistics and
// miss classification.
type pregState struct {
	live       bool // between Allocate and Free
	produced   bool // value has been written back
	inserted   bool // currently resident in the cache
	everCached bool // resident at any point during this lifetime
	insertions int  // initial writes + fills this lifetime
	reads      uint64
	set        int16 // assigned set (decoupled indexing)
	way        int16 // resident way while inserted (O(1) by-preg lookups)
	predUses   uint8 // prediction recorded at allocate (for index release)
	highUse    bool  // counted in filtered round-robin set loads
	released   bool  // index-policy accounting already released (retire/squash)
}

// Cache is a register cache. It is not safe for concurrent use; the
// simulator is single-threaded per core, as is the hardware it models.
type Cache struct {
	cfg   Config
	nsets int
	sets  [][]entry

	// liveWays counts valid entries per set so a full set (the steady
	// state) skips the empty-way scan.
	liveWays []int16

	pregs []pregState

	// Decoupled indexing state.
	rrNext     int
	setLoad    []int // minimum: sum of predicted uses assigned per set
	setHighUse []int // filtered round-robin: high-use values per set

	shadow *faShadow // fully-associative twin for the conflict/capacity split

	rngState uint64 // xorshift state for ReplaceRandom victim selection

	// tracer receives structured cache events when non-nil. Only the
	// primary's events describe the modeled hardware; the shadow has none.
	tracer obs.Tracer

	Stats Stats
}

// SetTracer attaches (or with nil detaches) a structured event tracer. The
// nil path adds a single predictable branch per access and no allocation.
func (c *Cache) SetTracer(t obs.Tracer) { c.tracer = t }

// New builds a register cache.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	if cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("core: %d entries not divisible by %d ways", cfg.Entries, cfg.Ways))
	}
	if cfg.MaxUse < 0 || cfg.MaxUse > maxUses || cfg.FillDefault < 0 || cfg.FillDefault > maxUses {
		panic(fmt.Sprintf("core: max use %d or fill default %d outside [0,%d]", cfg.MaxUse, cfg.FillDefault, maxUses))
	}
	nsets := cfg.Entries / cfg.Ways
	sets := make([][]entry, nsets)
	backing := make([]entry, cfg.Entries)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	c := &Cache{
		cfg:        cfg,
		nsets:      nsets,
		sets:       sets,
		liveWays:   make([]int16, nsets),
		pregs:      make([]pregState, cfg.MaxPRegs),
		setLoad:    make([]int, nsets),
		setHighUse: make([]int, nsets),
		rngState:   rngSeed,
	}
	if cfg.ClassifyMisses && cfg.Ways < cfg.Entries {
		c.shadow = newFAShadow(cfg.Entries, cfg.MaxPRegs, cfg.Replace)
	}
	return c
}

// Config returns the (defaulted) configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.nsets }

func (c *Cache) state(p PReg) *pregState {
	// The pipeline wires its NumPRegs into Config.MaxPRegs (the documented
	// contract); wrapping out-of-range tags would silently alias two live
	// registers' lifecycle state, so fail loudly instead.
	if int(p) < 0 || int(p) >= len(c.pregs) {
		panic(fmt.Sprintf("core: PReg %d outside physical register space [0,%d); size Config.MaxPRegs to the pipeline's NumPRegs", p, len(c.pregs)))
	}
	return &c.pregs[p]
}

// ClampUses saturates a raw degree-of-use prediction at MaxUse (the cache
// tracks at most MaxUse remaining uses; saturated predictions pin).
func (c *Cache) ClampUses(pred int) int {
	if pred > c.cfg.MaxUse {
		return c.cfg.MaxUse
	}
	if pred < 0 {
		return 0
	}
	return pred
}

// UnknownDefault returns the remaining-use count assumed when no
// prediction is available.
func (c *Cache) UnknownDefault() int { return c.cfg.UnknownDefault }

// Pins reports whether a (clamped) predicted use count pins the entry.
func (c *Cache) Pins(clamped int) bool { return clamped >= c.cfg.MaxUse }

// ---------------------------------------------------------------------------
// Rename-time interface: set assignment (decoupled indexing).
// ---------------------------------------------------------------------------

// Allocate registers a newly renamed physical register with its clamped
// predicted use count and returns the cache set assigned to it. Under
// standard indexing the set derives from the tag; under decoupled schemes
// it is chosen by the policy and travels with the rename mapping.
func (c *Cache) Allocate(p PReg, predUses int) int {
	st := c.state(p)
	*st = pregState{live: true, predUses: uint8(min(predUses, maxUses))}
	var set int
	switch c.cfg.Index {
	case IndexPReg:
		set = int(p) % c.nsets
	case IndexRoundRobin:
		set = c.rrNext
		c.rrNext = (c.rrNext + 1) % c.nsets
	case IndexMinimum:
		set = 0
		for s := 1; s < c.nsets; s++ {
			if c.setLoad[s] < c.setLoad[set] {
				set = s
			}
		}
		c.setLoad[set] += predUses
	case IndexFilteredRR:
		set = c.rrNext
		for tries := 0; tries < c.nsets; tries++ {
			if c.setHighUse[set] < c.cfg.SetSkipThreshold {
				break
			}
			set = (set + 1) % c.nsets
		}
		c.rrNext = (set + 1) % c.nsets
		if predUses > c.cfg.HighUseCutoff {
			st.highUse = true
			c.setHighUse[set]++
		}
	}
	st.set = int16(set)
	if c.shadow != nil {
		c.shadow.allocate(p)
	}
	return set
}

// releaseIndex undoes the index-policy accounting for p (at retire or
// squash — whichever comes first; idempotent).
func (c *Cache) releaseIndex(st *pregState) {
	if st.released {
		return
	}
	st.released = true
	switch c.cfg.Index {
	case IndexMinimum:
		c.setLoad[st.set] -= int(st.predUses)
		if c.setLoad[st.set] < 0 {
			c.setLoad[st.set] = 0
		}
	case IndexFilteredRR:
		if st.highUse {
			c.setHighUse[st.set]--
			if c.setHighUse[st.set] < 0 {
				c.setHighUse[st.set] = 0
			}
		}
	}
}

// Retire releases the index-policy accounting for p at instruction
// retirement (the paper decrements the minimum and filtered-round-robin
// counters at retire).
func (c *Cache) Retire(p PReg) {
	c.releaseIndex(c.state(p))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
