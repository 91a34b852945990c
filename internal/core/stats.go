package core

import (
	"fmt"
	"strings"

	"regcache/internal/obs"
)

// Stats accumulates the register cache metrics reported in Figures 8-10
// and Table 2 of the paper. Counter fields are exported for the experiment
// harness; derived metrics are provided as methods.
type Stats struct {
	// Read stream.
	Reads  uint64 // operand lookups presented to the cache
	Hits   uint64
	Misses uint64
	MissBy [numMissKinds]uint64

	// Write stream.
	Produced       uint64 // values presented at writeback
	WritesFiltered uint64 // initial writes skipped by the insertion policy
	Writes         uint64 // entries actually written (initial + fills)
	InitialWrites  uint64
	Fills          uint64

	// Replacement behaviour.
	Victims        uint64 // replacement decisions taken
	VictimsZeroUse uint64 // victims with zero remaining uses (Section 3.2: 84%)
	Evictions      uint64
	Invalidations  uint64 // invalidate-on-free removals

	// Per-value lifecycle.
	ValuesFreed        uint64 // produced values whose registers were freed
	InsertionsPerValue uint64 // total insertions over those values
	NeverCached        uint64 // values never resident during their lifetime
	CachedNeverRead    uint64 // residencies that served no reads
	Residencies        uint64
	ResidencyCycles    uint64

	// Occupancy integral (entries x cycles).
	OccupancyInt uint64

	occupied     int
	prevOccupied int
	lastOccCycle uint64
}

// MissRate returns misses per operand lookup.
func (s *Stats) MissRate() float64 { return ratio(s.Misses, s.Reads) }

// HitRate returns hits per operand lookup.
func (s *Stats) HitRate() float64 { return ratio(s.Hits, s.Reads) }

// MissRateBy returns the given miss category per operand lookup.
func (s *Stats) MissRateBy(k MissKind) float64 { return ratio(s.MissBy[k], s.Reads) }

// ReadsPerCachedValue returns cache read hits per value that was ever
// cached (Table 2, row 1).
func (s *Stats) ReadsPerCachedValue() float64 {
	cached := s.ValuesFreed - s.NeverCached
	return ratio(s.Hits, cached)
}

// CacheCount returns the mean number of times each produced value was
// written into the cache (Table 2, row 2).
func (s *Stats) CacheCount() float64 { return ratio(s.InsertionsPerValue, s.ValuesFreed) }

// MeanOccupancy returns the time-averaged number of valid entries over the
// given simulation length (Table 2, row 3).
func (s *Stats) MeanOccupancy(cycles uint64) float64 { return ratio(s.OccupancyInt, cycles) }

// MeanEntryLifetime returns the mean residency length in cycles (Table 2,
// row 4).
func (s *Stats) MeanEntryLifetime() float64 { return ratio(s.ResidencyCycles, s.Residencies) }

// FracCachedNeverRead returns the fraction of residencies that served no
// read (Figure 10, left group).
func (s *Stats) FracCachedNeverRead() float64 { return ratio(s.CachedNeverRead, s.Residencies) }

// FracWritesFiltered returns the fraction of produced values whose initial
// write was filtered (Figure 10, middle group).
func (s *Stats) FracWritesFiltered() float64 { return ratio(s.WritesFiltered, s.Produced) }

// FracNeverCached returns the fraction of values never cached during their
// lifetime (Figure 10, right group).
func (s *Stats) FracNeverCached() float64 { return ratio(s.NeverCached, s.ValuesFreed) }

// FracVictimsZeroUse returns the fraction of replacement victims that had
// zero remaining uses (the paper reports 84% for use-based replacement).
func (s *Stats) FracVictimsZeroUse() float64 { return ratio(s.VictimsZeroUse, s.Victims) }

// String renders a compact multi-line summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reads %d (hit %.3f, miss %.4f: filt %.4f cap %.4f conf %.4f)\n",
		s.Reads, s.HitRate(), s.MissRate(),
		s.MissRateBy(MissFiltered), s.MissRateBy(MissCapacity), s.MissRateBy(MissConflict))
	fmt.Fprintf(&b, "writes %d (initial %d, fills %d, filtered %d of %d produced)\n",
		s.Writes, s.InitialWrites, s.Fills, s.WritesFiltered, s.Produced)
	fmt.Fprintf(&b, "victims %d (%.1f%% zero-use), evictions %d, invalidations %d\n",
		s.Victims, 100*s.FracVictimsZeroUse(), s.Evictions, s.Invalidations)
	fmt.Fprintf(&b, "values: freed %d, never-cached %.1f%%, cached-never-read %.1f%%, cache-count %.2f, reads/cached %.2f\n",
		s.ValuesFreed, 100*s.FracNeverCached(), 100*s.FracCachedNeverRead(),
		s.CacheCount(), s.ReadsPerCachedValue())
	return b.String()
}

// Register publishes the live counters and derived rates into a metrics
// registry under prefix (e.g. "cache"). The snapshot func reads s at
// evaluation time, so a registered Stats keeps reporting as the simulation
// advances.
func (s *Stats) Register(r *obs.Registry, prefix string) {
	r.Func(prefix+".counters", func() any { return *s })
	r.Gauge(prefix+".hit_rate", s.HitRate)
	r.Gauge(prefix+".miss_rate", s.MissRate)
	r.Gauge(prefix+".miss_rate_conflict", func() float64 { return s.MissRateBy(MissConflict) })
	r.Gauge(prefix+".miss_rate_capacity", func() float64 { return s.MissRateBy(MissCapacity) })
	r.Gauge(prefix+".miss_rate_filtered", func() float64 { return s.MissRateBy(MissFiltered) })
	r.Gauge(prefix+".frac_victims_zero_use", s.FracVictimsZeroUse)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
