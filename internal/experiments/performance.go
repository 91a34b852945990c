package experiments

import (
	"fmt"

	"regcache/internal/core"
	"regcache/internal/sim"
	"regcache/internal/stats"
)

// fig11Sizes are the cache/L1 capacities swept in Figure 11.
var fig11Sizes = []int{16, 24, 32, 48, 64, 96, 128}

// Fig11 reproduces Figure 11: performance versus cache/L1 size for the
// three caching schemes (two-way), a four-way use-based cache, and the
// two-level register file whose L1 holds the cache size plus 32 entries.
func Fig11(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "fig11",
		Title: "Performance vs cache/L1 size (geomean speedup over 3-cycle RF)",
		Paper: "use-based outperforms the other caches across capacities, with a growing edge at small sizes; LRU and non-bypass break even near 20 entries; a 4-way use-based cache matches the 64-entry 2-way at 48 entries; the two-level file trails due to rename stalls (Figure 11)",
	}
	mk := []struct {
		name string
		sc   func(size int) (sim.Scheme, bool)
	}{
		{"LRU 2-way", func(s int) (sim.Scheme, bool) { return sim.LRU(s, 2, core.IndexRoundRobin), true }},
		{"non-bypass 2-way", func(s int) (sim.Scheme, bool) { return sim.NonBypass(s, 2, core.IndexRoundRobin), true }},
		{"use-based 2-way", func(s int) (sim.Scheme, bool) { return sim.UseBased(s, 2, core.IndexFilteredRR), true }},
		{"use-based 4-way", func(s int) (sim.Scheme, bool) { return sim.UseBased(s, 4, core.IndexFilteredRR), s%4 == 0 }},
		{"two-level (+32)", func(s int) (sim.Scheme, bool) {
			sc := sim.TwoLevel(s+32, 2)
			return sc, sim.ValidatePoint(sc, sim.Options{}) == nil // skip an L1 that cannot rename
		}},
	}
	all := []sim.Scheme{sim.Monolithic(3), sim.Monolithic(1), sim.Monolithic(2)}
	for _, size := range fig11Sizes {
		for _, m := range mk {
			if sc, ok := m.sc(size); ok {
				all = append(all, sc)
			}
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

	tb := stats.NewTable("entries", "LRU 2-way", "non-bypass 2-way", "use-based 2-way", "use-based 4-way", "two-level (+32)")
	curves := map[string]map[int]float64{}
	for _, m := range mk {
		curves[m.name] = map[int]float64{}
	}
	for _, size := range fig11Sizes {
		row := []string{fmt.Sprint(size)}
		for _, m := range mk {
			sc, ok := m.sc(size)
			if !ok {
				row = append(row, "-")
				continue
			}
			sr, err := runner.RunSuite(o.Benches, sc, sim.Options{Insts: o.Insts})
			if err != nil {
				return nil, err
			}
			rel := sr.RelIPC(base)
			curves[m.name][size] = rel
			row = append(row, fmt.Sprintf("%+.1f%%", 100*(rel-1)))
		}
		tb.AddRow(row...)
	}
	r.Section(tb.String())
	u, l, n := curves["use-based 2-way"], curves["LRU 2-way"], curves["non-bypass 2-way"]
	r.Note("use-based vs LRU at 64: %+.1f%%; at 16: %+.1f%% (paper: advantage grows as the cache shrinks)",
		100*(u[64]/l[64]-1), 100*(u[16]/l[16]-1))
	r.Note("non-bypass vs LRU at 64: %+.1f%%; at 16: %+.1f%% (paper: break even near 20 entries)",
		100*(n[64]/l[64]-1), 100*(n[16]/l[16]-1))
	if c4 := curves["use-based 4-way"]; c4[48] > 0 {
		r.Note("4-way at 48 entries vs 2-way at 64: %+.1f%% (paper: equivalent)",
			100*(c4[48]/u[64]-1))
	}
	if tl := curves["two-level (+32)"]; tl[64] > 0 {
		r.Note("two-level (96-entry L1) vs use-based at 64: %+.1f%% (paper: two-level trails)",
			100*(tl[64]/u[64]-1))
	}
	return r, nil
}

// Fig12 reproduces Figure 12: performance versus the backing file latency
// (L2 latency for the two-level scheme), 64-entry caches and a 96-entry
// two-level L1.
func Fig12(runner *sim.Runner, o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "fig12",
		Title: "Performance vs backing file / L2 latency (geomean speedup over 3-cycle RF)",
		Paper: "use-based degrades far more slowly with backing latency than LRU or non-bypass; it beats the 3-cycle file through backing latencies up to five cycles; with a 2-cycle backing file it is 6% faster than the 3-cycle file (Figure 12)",
	}
	lats := []int{1, 2, 3, 4, 5, 6}
	all := []sim.Scheme{sim.Monolithic(3), sim.Monolithic(1), sim.Monolithic(2)}
	for _, lat := range lats {
		all = append(all,
			sim.LRU(64, 2, core.IndexRoundRobin).WithBacking(lat),
			sim.NonBypass(64, 2, core.IndexRoundRobin).WithBacking(lat),
			sim.UseBased(64, 2, core.IndexFilteredRR).WithBacking(lat),
			sim.TwoLevel(96, lat))
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

	tb := stats.NewTable("latency", "LRU", "non-bypass", "use-based", "two-level(96)")
	curves := map[string]map[int]float64{"LRU": {}, "non-bypass": {}, "use-based": {}, "two-level(96)": {}}
	for _, lat := range lats {
		row := []string{fmt.Sprint(lat)}
		schemes := []struct {
			name string
			sc   sim.Scheme
		}{
			{"LRU", sim.LRU(64, 2, core.IndexRoundRobin).WithBacking(lat)},
			{"non-bypass", sim.NonBypass(64, 2, core.IndexRoundRobin).WithBacking(lat)},
			{"use-based", sim.UseBased(64, 2, core.IndexFilteredRR).WithBacking(lat)},
			{"two-level(96)", sim.TwoLevel(96, lat)},
		}
		for _, s := range schemes {
			sr, err := runner.RunSuite(o.Benches, s.sc, sim.Options{Insts: o.Insts})
			if err != nil {
				return nil, err
			}
			rel := sr.RelIPC(base)
			curves[s.name][lat] = rel
			row = append(row, fmt.Sprintf("%+.1f%%", 100*(rel-1)))
		}
		tb.AddRow(row...)
	}
	r.Section(tb.String())
	u := curves["use-based"]
	r.Note("use-based degradation from backing 1 to 6: %.1f%%; LRU: %.1f%% (paper: use-based degrades less)",
		100*(1-u[6]/u[1]), 100*(1-curves["LRU"][6]/curves["LRU"][1]))
	r.Note("use-based with 2-cycle backing vs 3-cycle file: %+.1f%% (paper: +6%%)", 100*(u[2]-1))
	return r, nil
}
