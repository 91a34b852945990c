package experiments

import (
	"fmt"

	"regcache/internal/core"
	"regcache/internal/pipeline"
	"regcache/internal/sim"
	"regcache/internal/stats"
)

// Sec53 reproduces the Section 5.3 parameter tuning that the paper reports
// in text: the maximum tracked use count (knee near 7, sharp fall-off
// below), the unknown-prediction default (1 is best: most values are used
// once), and the fill default (0 is best: any given use is most likely the
// last). These are the ablations behind the chosen design point.
func Sec53(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "sec53",
		Title: "Design-point ablations: max use, unknown default, fill default",
		Paper: "performance falls off rapidly for max-use limits below six with a knee near 7; an unknown default of one use is best; a fill default of zero is best (Section 5.3)",
	}
	base := sim.UseBased(64, 2, core.IndexFilteredRR)
	mkScheme := func(maxUse, unknown, fill int) sim.Scheme {
		s := base
		s.Name = fmt.Sprintf("use-m%d-u%d-f%d", maxUse, unknown, fill)
		s.Cache.MaxUse = maxUse
		s.Cache.UnknownDefault = unknown
		s.Cache.FillDefault = fill
		return s
	}
	all := []sim.Scheme{base}
	for _, m := range []int{2, 3, 5, 7, 12} {
		all = append(all, mkScheme(m, 1, 0))
	}
	for _, u := range []int{1, 2, 3} {
		all = append(all, mkScheme(7, u, 0))
	}
	for _, f := range []int{0, 1, 2} {
		all = append(all, mkScheme(7, 1, f))
	}
	prefetch(runner, o, all...)
	ref, err := runner.RunSuite(o.Benches, base, sim.Options{Insts: o.Insts})
	if err != nil {
		return nil, err
	}

	// Max-use sweep, with unknown=1 and fill=0 held at their defaults.
	tb := stats.NewTable("max use", "speedup vs maxuse=7", "miss rate")
	for _, m := range []int{2, 3, 5, 7, 12} {
		sr, err := runner.RunSuite(o.Benches, mkScheme(m, 1, 0), sim.Options{Insts: o.Insts})
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprint(m), fmt.Sprintf("%+.2f%%", 100*(sr.RelIPC(ref)-1)), fmtF(sr.MeanMissRate()))
	}
	r.Section("maximum tracked use count (values predicted at the limit pin):")
	r.Section(tb.String())

	tb2 := stats.NewTable("unknown default", "speedup vs default=1", "miss rate")
	for _, u := range []int{1, 2, 3} {
		sr, err := runner.RunSuite(o.Benches, mkScheme(7, u, 0), sim.Options{Insts: o.Insts})
		if err != nil {
			return nil, err
		}
		tb2.AddRow(fmt.Sprint(u), fmt.Sprintf("%+.2f%%", 100*(sr.RelIPC(ref)-1)), fmtF(sr.MeanMissRate()))
	}
	r.Section("unknown default (remaining uses assumed without a prediction):")
	r.Section(tb2.String())

	tb3 := stats.NewTable("fill default", "speedup vs default=0", "miss rate")
	for _, f := range []int{0, 1, 2} {
		sr, err := runner.RunSuite(o.Benches, mkScheme(7, 1, f), sim.Options{Insts: o.Insts})
		if err != nil {
			return nil, err
		}
		tb3.AddRow(fmt.Sprint(f), fmt.Sprintf("%+.2f%%", 100*(sr.RelIPC(ref)-1)), fmtF(sr.MeanMissRate()))
	}
	r.Section("fill default (remaining uses assumed after a miss fill):")
	r.Section(tb3.String())
	return r, nil
}

// Sec52 quantifies the miss model of Section 5.2: register cache miss
// events per 1k instructions, backing port conflicts, and the sensitivity
// of the design point to the backing file latency — the modeling detail
// the paper credits for its lower register-caching advantage versus prior
// work.
func Sec52(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "sec52",
		Title: "Register cache miss model cost",
		Paper: "the miss penalty (issue-group replay, port arbitration, write interlock) makes the register cache advantage smaller than prior work suggested (Section 5.2)",
	}
	var all []sim.Scheme
	for _, lat := range []int{1, 2, 3, 4} {
		all = append(all, sim.UseBased(64, 2, core.IndexFilteredRR).WithBacking(lat))
	}
	prefetch(runner, o, all...)
	tb := stats.NewTable("backing latency", "speedup vs 1-cycle backing", "miss events/1k insts", "port-wait cycles/1k insts", "suppressed issue cycles/1k")
	var ref *sim.SuiteResult
	for _, lat := range []int{1, 2, 3, 4} {
		sc := sim.UseBased(64, 2, core.IndexFilteredRR).WithBacking(lat)
		sr, err := runner.RunSuite(o.Benches, sc, sim.Options{Insts: o.Insts})
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = sr
		}
		perK := func(f func(p pipeline.Result) uint64) float64 {
			return sr.Mean(func(p pipeline.Result) float64 {
				return 1000 * float64(f(p)) / float64(p.Stats.Retired)
			})
		}
		tb.AddRow(fmt.Sprint(lat),
			fmt.Sprintf("%+.2f%%", 100*(sr.RelIPC(ref)-1)),
			fmtF(perK(func(p pipeline.Result) uint64 { return p.Stats.RCMissEvents })),
			fmtF(perK(func(p pipeline.Result) uint64 { return p.Stats.PortConflictStalls })),
			fmtF(perK(func(p pipeline.Result) uint64 { return p.Stats.SuppressedIssueCycles })))
	}
	r.Section(tb.String())
	return r, nil
}

// Oracle extends the paper: the full management-policy spectrum from a
// random-replacement cache to perfect a priori use knowledge (the paper's
// Section 3 motivation). It bounds how much of the remaining miss rate is
// predictor error versus structural (wrong-path uses, fill defaults).
func Oracle(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "oracle",
		Title: "Management-policy spectrum up to perfect use knowledge",
		Paper: "extension: the paper motivates use-based management with perfect a-priori use knowledge (Section 3); this ablation measures how close the 97%-accurate predictor gets",
	}
	random := sim.LRU(64, 2, core.IndexRoundRobin)
	random.Name = "random-64x2"
	random.Cache.Replace = core.ReplaceRandom
	schemes := []struct {
		name string
		sc   sim.Scheme
	}{
		{"random replacement", random},
		{"LRU", sim.LRU(64, 2, core.IndexRoundRobin)},
		{"non-bypass", sim.NonBypass(64, 2, core.IndexRoundRobin)},
		{"use-based (predicted)", sim.UseBased(64, 2, core.IndexFilteredRR)},
		{"use-based (oracle)", sim.UseBased(64, 2, core.IndexFilteredRR).WithOracle()},
	}
	all := make([]sim.Scheme, 0, len(schemes))
	for _, s := range schemes {
		all = append(all, s.sc)
	}
	prefetch(runner, o, all...)
	base, err := runner.RunSuite(o.Benches, sim.LRU(64, 2, core.IndexRoundRobin), sim.Options{Insts: o.Insts})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("management", "speedup vs LRU", "miss rate", "cached-never-read")
	for _, s := range schemes {
		sr, err := runner.RunSuite(o.Benches, s.sc, sim.Options{Insts: o.Insts})
		if err != nil {
			return nil, err
		}
		rel := fmt.Sprintf("%+.2f%%", 100*(sr.RelIPC(base)-1))
		tb.AddRow(s.name, rel, fmtF(sr.MeanMissRate()),
			fmtPct(sr.Mean(func(p pipeline.Result) float64 { return p.Cache.FracCachedNeverRead() })))
	}
	r.Section(tb.String())
	r.Note("the gap between predicted and oracle use-based rows is predictor error; the oracle's remaining misses are structural (wrong-path consumption, zero-use fill defaults)")
	return r, nil
}
