package experiments

import (
	"regcache/internal/core"
	"regcache/internal/pipeline"
	"regcache/internal/sim"
	"regcache/internal/stats"
)

// The three caching schemes characterized in Section 5.4, at the 64-entry
// two-way design point. Reference designs use round-robin decoupled
// indexing (no use information needed); the use-based design uses filtered
// round-robin, exactly as the paper specifies.
func charSchemes() []sim.Scheme {
	return []sim.Scheme{
		sim.LRU(64, 2, core.IndexRoundRobin),
		sim.NonBypass(64, 2, core.IndexRoundRobin),
		sim.UseBased(64, 2, core.IndexFilteredRR),
	}
}

var charNames = []string{"LRU", "non-bypass", "use-based"}

// Fig8 reproduces Figure 8: per-operand miss rates broken into filtered
// (initial write avoided), capacity, and conflict components, under
// standard indexing and under decoupled (filtered round-robin) indexing.
func Fig8(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "fig8",
		Title: "Register cache miss breakdown (per operand, 64-entry 2-way)",
		Paper: "write filtering trades eviction misses for filtered-value misses: non-bypass exceeds LRU overall, use-based is substantially lower; decoupled indexing removes 30-40% of conflict misses (Figure 8)",
	}
	std := []sim.Scheme{
		sim.LRU(64, 2, core.IndexPReg),
		sim.NonBypass(64, 2, core.IndexPReg),
		sim.UseBased(64, 2, core.IndexPReg),
	}
	dec := []sim.Scheme{
		sim.LRU(64, 2, core.IndexFilteredRR),
		sim.NonBypass(64, 2, core.IndexFilteredRR),
		sim.UseBased(64, 2, core.IndexFilteredRR),
	}
	prefetch(runner, o, append(append([]sim.Scheme{}, std...), dec...)...)
	tb := stats.NewTable("scheme", "indexing", "filtered", "capacity", "conflict", "total")
	conflicts := map[string][2]float64{}
	for i := range charNames {
		var conf [2]float64
		for j, sc := range []sim.Scheme{std[i], dec[i]} {
			sr, err := runner.RunSuite(o.Benches, sc, sim.Options{Insts: o.Insts})
			if err != nil {
				return nil, err
			}
			idxName := "standard"
			if j == 1 {
				idxName = "filtered-RR"
			}
			tb.AddRow(charNames[i], idxName,
				fmtF(sr.MeanMissRateBy(core.MissFiltered)),
				fmtF(sr.MeanMissRateBy(core.MissCapacity)),
				fmtF(sr.MeanMissRateBy(core.MissConflict)),
				fmtF(sr.MeanMissRate()))
			conf[j] = sr.MeanMissRateBy(core.MissConflict)
		}
		conflicts[charNames[i]] = conf
	}
	r.Section(tb.String())
	for _, n := range charNames {
		c := conflicts[n]
		if c[0] > 0 {
			r.Note("%s: decoupled indexing removes %.0f%% of conflict misses (paper: 30-40%%)",
				n, 100*(1-c[1]/c[0]))
		}
	}
	return r, nil
}

// Fig9 reproduces Figure 9: average accesses per cycle by type and
// structure for the three caching schemes.
func Fig9(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "fig9",
		Title: "Average access bandwidth (per cycle, 64-entry 2-way)",
		Paper: "write filtering lowers cache write bandwidth versus LRU; register file read bandwidth is proportional to the miss rate; the file sees all writes (Figure 9)",
	}
	prefetch(runner, o, charSchemes()...)
	tb := stats.NewTable("scheme", "cache-read", "cache-write", "file-read", "file-write")
	for i, sc := range charSchemes() {
		sr, err := runner.RunSuite(o.Benches, sc, sim.Options{Insts: o.Insts})
		if err != nil {
			return nil, err
		}
		tb.AddRow(charNames[i],
			fmtF(sr.Mean(pipeline.Result.CacheReadBW)),
			fmtF(sr.Mean(pipeline.Result.CacheWriteBW)),
			fmtF(sr.Mean(pipeline.Result.RFReadBW)),
			fmtF(sr.Mean(pipeline.Result.RFWriteBW)))
	}
	r.Section(tb.String())
	r.Note("file-read bandwidth equals the fill bandwidth: the cache filters reads from the backing file, which is why a single read port suffices (Section 2.2)")
	return r, nil
}

// Fig10 reproduces Figure 10: the fractions of cached values never read,
// of initial writes filtered, and of values never cached at all.
func Fig10(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "fig10",
		Title: "Filtering effects (64-entry 2-way)",
		Paper: "use-based filtering caches fewer dead values than LRU while filtering a larger share of initial writes than non-bypass; use-based shows the lowest cached-never-read fraction (Figure 10)",
	}
	prefetch(runner, o, charSchemes()...)
	tb := stats.NewTable("scheme", "cached-never-read", "writes-filtered", "never-cached")
	vals := map[string][3]float64{}
	for i, sc := range charSchemes() {
		sr, err := runner.RunSuite(o.Benches, sc, sim.Options{Insts: o.Insts})
		if err != nil {
			return nil, err
		}
		v := [3]float64{
			sr.Mean(func(p pipeline.Result) float64 { return p.Cache.FracCachedNeverRead() }),
			sr.Mean(func(p pipeline.Result) float64 { return p.Cache.FracWritesFiltered() }),
			sr.Mean(func(p pipeline.Result) float64 { return p.Cache.FracNeverCached() }),
		}
		vals[charNames[i]] = v
		tb.AddRow(charNames[i], fmtPct(v[0]), fmtPct(v[1]), fmtPct(v[2]))
	}
	r.Section(tb.String())
	if vals["use-based"][1] > vals["non-bypass"][1] {
		r.Note("use-based filters a HIGHER share of initial writes than non-bypass (paper: same), with a lower miss rate — better filtering decisions, not less aggressive ones")
	}
	return r, nil
}

// Table2 reproduces Table 2: reads per cached value, times each value is
// cached, mean cache occupancy, and mean cache entry lifetime.
func Table2(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "table2",
		Title: "Register cache metrics (64-entry 2-way)",
		Paper: "LRU 0.67 reads/cached value, 1.09 cache count, 36.7 occupancy, 25.2-cycle lifetime; use-based 1.67, 0.44, 26.6, 43.6 (Table 2)",
	}
	prefetch(runner, o, charSchemes()...)
	tb := stats.NewTable("metric", "LRU", "non-bypass", "use-based")
	rows := [4][]string{
		{"reads per cached value"},
		{"times each value is cached"},
		{"cache occupancy (entries)"},
		{"cache entry lifetime (cycles)"},
	}
	for _, sc := range charSchemes() {
		sr, err := runner.RunSuite(o.Benches, sc, sim.Options{Insts: o.Insts})
		if err != nil {
			return nil, err
		}
		rows[0] = append(rows[0], fmtF(sr.Mean(func(p pipeline.Result) float64 { return p.Cache.ReadsPerCachedValue() })))
		rows[1] = append(rows[1], fmtF(sr.Mean(func(p pipeline.Result) float64 { return p.Cache.CacheCount() })))
		rows[2] = append(rows[2], fmtF(sr.Mean(func(p pipeline.Result) float64 { return p.Cache.MeanOccupancy(p.Stats.Cycles) })))
		rows[3] = append(rows[3], fmtF(sr.Mean(func(p pipeline.Result) float64 { return p.Cache.MeanEntryLifetime() })))
	}
	for _, row := range rows {
		tb.AddRow(row...)
	}
	r.Section(tb.String())
	r.Note("expected ordering: reads/cached value and entry lifetime increase LRU -> non-bypass -> use-based; cache count and occupancy decrease")
	return r, nil
}

// Sec3 checks the in-text statistics of Section 3: the fraction of
// operands supplied by the bypass network (57%), the fraction of
// replacement victims with zero remaining uses (84%), and the degree-of-use
// predictor accuracy (97%).
func Sec3(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "sec3",
		Title: "Use-based management vital statistics",
		Paper: "bypass supplies 57% of operands; 84% of use-based victims have zero remaining uses; degree-of-use prediction is 97% accurate (Section 3)",
	}
	sr, err := runner.RunSuite(o.Benches, sim.UseBased(64, 2, core.IndexFilteredRR), sim.Options{Insts: o.Insts})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("metric", "measured", "paper")
	tb.AddRow("bypass fraction of operand reads",
		fmtPct(sr.Mean(pipeline.Result.BypassFrac)), "57%")
	tb.AddRow("victims with zero remaining uses",
		fmtPct(sr.Mean(func(p pipeline.Result) float64 { return p.Cache.FracVictimsZeroUse() })), "84%")
	tb.AddRow("degree-of-use predictor accuracy",
		fmtPct(sr.Mean(pipeline.Result.UsePredAccuracy)), "97%")
	tb.AddRow("degree-of-use predictor coverage",
		fmtPct(sr.Mean(pipeline.Result.UsePredCoverage)), "(finite predictor)")
	r.Section(tb.String())
	return r, nil
}
