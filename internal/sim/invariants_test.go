package sim

// Cross-cutting invariant/property tests over the default scheme matrix:
// instead of fingerprinting exact counter values (which perf refactors
// legitimately change), these assert the accounting *identities* that any
// correct simulation must satisfy — conservation laws between the read,
// write, and residency streams, bounded rates, and sane aggregate shapes.
// A hot-loop rewrite that breaks bookkeeping fails here with a named
// identity rather than an opaque fingerprint mismatch.

import (
	"context"
	"fmt"
	"testing"

	"regcache/internal/core"
	"regcache/internal/pipeline"
)

// invariantInsts keeps the matrix sweep fast while leaving every counter
// far from trivial (tens of thousands of events per stream).
const invariantInsts = 20_000

func TestMatrixInvariants(t *testing.T) {
	r := NewRunnerWith(0, NewWorkloadCache())
	defer r.Close()
	schemes := append(defaultMatrix(), UseBased(64, 2, core.IndexFilteredRR).WithOracle())
	benches := QuickBenchmarks()
	o := Options{Insts: invariantInsts}
	r.Prefetch(benches, schemes, o)
	for _, s := range schemes {
		for _, b := range benches {
			s, b := s, b
			t.Run(fmt.Sprintf("%s/%s", s.Name, b), func(t *testing.T) {
				res, err := r.Run(context.Background(), b, s, o)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				checkPipelineInvariants(t, s, res)
				if s.Kind == pipeline.SchemeCache {
					checkCacheInvariants(t, s, res)
				} else {
					checkNoCacheStats(t, res)
				}
			})
		}
	}
}

// checkPipelineInvariants asserts the scheme-independent identities.
func checkPipelineInvariants(t *testing.T, s Scheme, res pipeline.Result) {
	t.Helper()
	st := res.Stats
	if st.Cycles == 0 {
		t.Fatalf("Cycles = 0")
	}
	if res.IPC() <= 0 {
		t.Errorf("IPC = %v, want > 0", res.IPC())
	}
	if st.Retired < invariantInsts {
		t.Errorf("Retired = %d, want >= the %d budget", st.Retired, invariantInsts)
	}
	if st.Retired > st.Fetched {
		t.Errorf("Retired %d > Fetched %d: instructions retired that were never fetched", st.Retired, st.Fetched)
	}
	if ipc := float64(st.Retired) / float64(st.Cycles); !closeTo(res.IPC(), ipc) {
		t.Errorf("IPC %v inconsistent with Retired/Cycles = %v", res.IPC(), ipc)
	}
	inUnit(t, "BypassFrac", res.BypassFrac())
	inUnit(t, "UsePredAccuracy", res.UsePredAccuracy())
	inUnit(t, "UsePredCoverage", res.UsePredCoverage())
	if st.BypassReads > st.SrcOperands {
		t.Errorf("BypassReads %d > SrcOperands %d", st.BypassReads, st.SrcOperands)
	}
	if st.Mispredicts > st.PredictedWrong {
		t.Errorf("Mispredicts %d > PredictedWrong %d: recovered more mispredictions than were fetched wrong", st.Mispredicts, st.PredictedWrong)
	}
}

// checkCacheInvariants asserts the register cache conservation laws.
func checkCacheInvariants(t *testing.T, s Scheme, res pipeline.Result) {
	t.Helper()
	c := res.Cache
	if c.Reads == 0 || c.Writes == 0 {
		t.Fatalf("cache saw no traffic (reads %d, writes %d)", c.Reads, c.Writes)
	}

	// Read stream: every lookup is a hit or exactly one class of miss.
	if c.Reads != c.Hits+c.Misses {
		t.Errorf("Reads %d != Hits %d + Misses %d", c.Reads, c.Hits, c.Misses)
	}
	var missSum uint64
	for _, m := range c.MissBy {
		missSum += m
	}
	if c.Misses != missSum {
		t.Errorf("Misses %d != sum of miss classes %d", c.Misses, missSum)
	}
	inUnit(t, "MissRate", c.MissRate())
	inUnit(t, "HitRate", c.HitRate())

	// Write stream: every produced value is either written initially or
	// filtered, and every write is an initial write or a fill.
	if c.Writes != c.InitialWrites+c.Fills {
		t.Errorf("Writes %d != InitialWrites %d + Fills %d", c.Writes, c.InitialWrites, c.Fills)
	}
	if c.Produced != c.InitialWrites+c.WritesFiltered {
		t.Errorf("Produced %d != InitialWrites %d + WritesFiltered %d", c.Produced, c.InitialWrites, c.WritesFiltered)
	}

	// Residency accounting: every eviction and invalidation finalizes a
	// residency (in-place fill refreshes finalize extras), and every
	// residency began with a write; the shortfall vs Writes is only the
	// entries still resident at the end of the run.
	if c.Residencies < c.Evictions+c.Invalidations {
		t.Errorf("Residencies %d < Evictions %d + Invalidations %d", c.Residencies, c.Evictions, c.Invalidations)
	}
	if c.Residencies > c.Writes {
		t.Errorf("Residencies %d > Writes %d: a residency must start with a write", c.Residencies, c.Writes)
	}
	if c.CachedNeverRead > c.Residencies {
		t.Errorf("CachedNeverRead %d > Residencies %d", c.CachedNeverRead, c.Residencies)
	}

	// Replacement: zero-use victims are a subset of victims.
	if c.VictimsZeroUse > c.Victims {
		t.Errorf("VictimsZeroUse %d > Victims %d", c.VictimsZeroUse, c.Victims)
	}
	if c.Evictions > c.Victims {
		t.Errorf("Evictions %d > Victims %d", c.Evictions, c.Victims)
	}

	// Per-value lifecycle: cached values were inserted at least once.
	if c.NeverCached > c.ValuesFreed {
		t.Errorf("NeverCached %d > ValuesFreed %d", c.NeverCached, c.ValuesFreed)
	}
	if cached := c.ValuesFreed - c.NeverCached; c.InsertionsPerValue < cached {
		t.Errorf("InsertionsPerValue %d < cached values %d", c.InsertionsPerValue, cached)
	}

	// Occupancy can never exceed the configured capacity.
	if occ := c.MeanOccupancy(res.Stats.Cycles); occ < 0 || occ > float64(s.Cache.Entries) {
		t.Errorf("MeanOccupancy %v outside [0, %d]", occ, s.Cache.Entries)
	}
	if c.MeanEntryLifetime() < 0 {
		t.Errorf("MeanEntryLifetime %v < 0", c.MeanEntryLifetime())
	}
	inUnit(t, "FracVictimsZeroUse", c.FracVictimsZeroUse())
	inUnit(t, "FracCachedNeverRead", c.FracCachedNeverRead())
	inUnit(t, "FracWritesFiltered", c.FracWritesFiltered())
	inUnit(t, "FracNeverCached", c.FracNeverCached())
}

// checkNoCacheStats asserts non-cache schemes leave the cache counters
// untouched (a regression here means a scheme is double-driving the
// register cache model).
func checkNoCacheStats(t *testing.T, res pipeline.Result) {
	t.Helper()
	c := res.Cache
	if c.Reads != 0 || c.Writes != 0 || c.Residencies != 0 {
		t.Errorf("non-cache scheme drove the cache model: reads %d, writes %d, residencies %d",
			c.Reads, c.Writes, c.Residencies)
	}
	if res.Stats.RFReads == 0 {
		t.Errorf("non-cache scheme read nothing from the register file")
	}
}

func inUnit(t *testing.T, name string, v float64) {
	t.Helper()
	if v < 0 || v > 1 || v != v {
		t.Errorf("%s = %v, want within [0,1]", name, v)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
