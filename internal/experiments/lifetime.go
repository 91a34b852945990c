package experiments

import (
	"fmt"

	"regcache/internal/core"
	"regcache/internal/sim"
	"regcache/internal/stats"
)

// lifetimeScheme is the machine used for the lifetime characterization
// (Figures 1-2): the paper measures on its baseline out-of-order machine;
// the register storage scheme does not change the architectural lifetimes
// materially, so the use-based design point is used here.
//
// These two experiments read lifetime histograms off the pipeline object
// after the run, which a memoized pipeline.Result cannot carry, so they
// deliberately bypass the runner (sim.RunPipeline, not Runner.RunSuite).
func lifetimeScheme() sim.Scheme {
	return sim.UseBased(64, 2, core.IndexFilteredRR)
}

// Fig1 reproduces Figure 1: the median lengths of the empty, live, and
// dead phases of physical register lifetimes, averaged over the suite.
func Fig1(_ *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "fig1",
		Title: "Register lifetime phases (cycles)",
		Paper: "live time is a small fraction of the total lifetime; dead time dominates (Figure 1)",
	}
	tb := stats.NewTable("bench", "empty(med)", "live(med)", "dead(med)")
	var em, lv, dd []float64
	for _, b := range o.Benches {
		pl, err := sim.RunPipeline(b, lifetimeScheme(), sim.Options{Insts: o.Insts, TrackLifetimes: true})
		if err != nil {
			return nil, err
		}
		pl.Run(o.Insts)
		lt := pl.Lifetimes()
		e, l, d := lt.Empty.Median(), lt.Live.Median(), lt.Dead.Median()
		em = append(em, float64(e))
		lv = append(lv, float64(l))
		dd = append(dd, float64(d))
		tb.AddRow(b, fmt.Sprint(e), fmt.Sprint(l), fmt.Sprint(d))
	}
	tb.AddRow("MEAN", fmtF(stats.Mean(em)), fmtF(stats.Mean(lv)), fmtF(stats.Mean(dd)))
	r.Section(tb.String())
	r.Note("live/dead ratio %.3f (paper: live time is a small fraction of the lifetime)",
		stats.Mean(lv)/maxf(stats.Mean(dd), 1))
	return r, nil
}

// Fig2 reproduces Figure 2: cumulative distributions of simultaneously
// allocated physical registers and simultaneously live values, with the
// 90th-percentile live count the paper highlights (56 for SPECint 2000).
func Fig2(_ *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "fig2",
		Title: "Allocated vs live registers (distribution over cycles)",
		Paper: "median live values < 20% of allocated registers; 90% of the time 56 locations hold all live values (Figure 2)",
	}
	alloc := stats.NewHistogram()
	live := stats.NewHistogram()
	tb := stats.NewTable("bench", "alloc p50", "alloc p90", "live p50", "live p90")
	for _, b := range o.Benches {
		pl, err := sim.RunPipeline(b, lifetimeScheme(), sim.Options{Insts: o.Insts, TrackLifetimes: true, TrackLive: true})
		if err != nil {
			return nil, err
		}
		pl.Run(o.Insts)
		lt := pl.Lifetimes()
		a, l := lt.AllocatedDist(), lt.LiveDist()
		alloc.Merge(a)
		live.Merge(l)
		tb.AddRow(b, fmt.Sprint(a.Median()), fmt.Sprint(a.Percentile(0.9)),
			fmt.Sprint(l.Median()), fmt.Sprint(l.Percentile(0.9)))
	}
	tb.AddRow("SUITE", fmt.Sprint(alloc.Median()), fmt.Sprint(alloc.Percentile(0.9)),
		fmt.Sprint(live.Median()), fmt.Sprint(live.Percentile(0.9)))
	r.Section(tb.String())
	ratio := float64(live.Median()) / maxf(float64(alloc.Median()), 1)
	r.Note("suite median live = %d = %.0f%% of median allocated (%d); live P90 = %d",
		live.Median(), 100*ratio, alloc.Median(), live.Percentile(0.9))
	return r, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
