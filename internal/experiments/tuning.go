package experiments

import (
	"fmt"

	"regcache/internal/core"
	"regcache/internal/sim"
	"regcache/internal/stats"
)

// fig6Sizes are the cache capacities swept in Figure 6.
var fig6Sizes = []int{16, 24, 32, 48, 64, 96, 128}

// Fig6 reproduces Figure 6: mean performance of use-based register caches
// versus size and associativity under standard (physical-register)
// indexing, with the no-cache baselines at register file latencies 1-3
// superimposed.
func Fig6(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "fig6",
		Title: "IPC vs register cache size and associativity (standard indexing)",
		Paper: "two-way associativity is the minimum for reasonable performance; direct-mapped caches fail to beat the 3-cycle register file even when large; a 64-entry two-way cache is the chosen design point (Figure 6)",
	}
	assocs := []struct {
		name string
		ways func(entries int) int
	}{
		{"direct", func(int) int { return 1 }},
		{"2-way", func(int) int { return 2 }},
		{"4-way", func(int) int { return 4 }},
		{"full", func(e int) int { return e }},
	}
	all := []sim.Scheme{sim.Monolithic(3), sim.Monolithic(1), sim.Monolithic(2)}
	for _, size := range fig6Sizes {
		for _, a := range assocs {
			all = append(all, sim.UseBased(size, a.ways(size), core.IndexPReg))
		}
	}
	prefetch(runner, o, all...)

	base, err := runner.RunSuite(o.Benches, sim.Monolithic(3), sim.Options{Insts: o.Insts})
	if err != nil {
		return nil, err
	}
	for _, lat := range []int{1, 2} {
		sr, err := runner.RunSuite(o.Benches, sim.Monolithic(lat), sim.Options{Insts: o.Insts})
		if err != nil {
			return nil, err
		}
		r.Sectionf("no-cache RF %d-cycle: %+.1f%% vs 3-cycle file", lat, 100*(sr.RelIPC(base)-1))
	}
	tb := stats.NewTable("entries", "direct", "2-way", "4-way", "full")
	results := map[string]map[int]float64{}
	for _, a := range assocs {
		results[a.name] = map[int]float64{}
	}
	for _, size := range fig6Sizes {
		row := []string{fmt.Sprint(size)}
		for _, a := range assocs {
			sc := sim.UseBased(size, a.ways(size), core.IndexPReg)
			sr, err := runner.RunSuite(o.Benches, sc, sim.Options{Insts: o.Insts})
			if err != nil {
				return nil, err
			}
			rel := sr.RelIPC(base)
			results[a.name][size] = rel
			row = append(row, fmt.Sprintf("%+.1f%%", 100*(rel-1)))
		}
		tb.AddRow(row...)
	}
	r.Section(tb.String())
	r.Sectionf("(cells: geomean speedup over the 3-cycle register file)")
	dm128, tw64 := results["direct"][128], results["2-way"][64]
	r.Note("direct-mapped at 128 entries vs RF-3cyc: %+.1f%% (paper: fails to break even)",
		100*(dm128-1))
	r.Note("64-entry 2-way vs RF-3cyc: %+.1f%% (paper design point)", 100*(tw64-1))
	r.Note("associativity gain at 64 entries: 2-way %+.1f%%, 4-way %+.1f%%, full %+.1f%% over direct",
		100*(results["2-way"][64]/results["direct"][64]-1),
		100*(results["4-way"][64]/results["direct"][64]-1),
		100*(results["full"][64]/results["direct"][64]-1))
	return r, nil
}

// Fig7 reproduces Figure 7: the decoupled indexing policies (round-robin,
// minimum, filtered round-robin) against standard preg indexing on
// use-based caches of one to four ways.
func Fig7(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "fig7",
		Title: "Decoupled indexing algorithms (64-entry use-based cache)",
		Paper: "filtered round-robin improves a two-way cache by 1.9%; minimum performs nearly as well; even round-robin helps; advantages grow as associativity falls (Figure 7)",
	}
	indexes := []core.IndexScheme{core.IndexPReg, core.IndexRoundRobin, core.IndexMinimum, core.IndexFilteredRR}
	var all []sim.Scheme
	for _, ways := range []int{1, 2, 4} {
		for _, idx := range indexes {
			all = append(all, sim.UseBased(64, ways, idx))
		}
	}
	prefetch(runner, o, all...)
	tb := stats.NewTable("ways", "preg", "round-robin", "minimum", "filtered")
	gains := map[int]map[core.IndexScheme]float64{}
	for _, ways := range []int{1, 2, 4} {
		row := []string{fmt.Sprint(ways)}
		gains[ways] = map[core.IndexScheme]float64{}
		var base *sim.SuiteResult
		for _, idx := range indexes {
			sr, err := runner.RunSuite(o.Benches, sim.UseBased(64, ways, idx), sim.Options{Insts: o.Insts})
			if err != nil {
				return nil, err
			}
			if idx == core.IndexPReg {
				base = sr
				gains[ways][idx] = 1
				row = append(row, "1.000")
			} else {
				rel := sr.RelIPC(base)
				gains[ways][idx] = rel
				row = append(row, fmt.Sprintf("%+.2f%%", 100*(rel-1)))
			}
		}
		tb.AddRow(row...)
	}
	r.Section(tb.String())
	r.Note("filtered round-robin gain on 2-way: %+.2f%% (paper: +1.9%%)",
		100*(gains[2][core.IndexFilteredRR]-1))
	r.Note("gain on direct-mapped: %+.2f%%; on 4-way: %+.2f%% (paper: larger gains at lower associativity)",
		100*(gains[1][core.IndexFilteredRR]-1),
		100*(gains[4][core.IndexFilteredRR]-1))
	return r, nil
}
