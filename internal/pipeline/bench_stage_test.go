package pipeline

// Steady-state cycle-loop benchmarks and the zero-allocation gates the
// performance work is held to. One benchmark op is one simulated cycle on a
// warmed pipeline, so the standard ns/op and allocs/op columns read
// directly as ns/simulated-cycle and allocs/cycle; sim-insts/s is reported
// alongside from the instructions retired during the measured window.

import (
	"reflect"
	"testing"
	"time"

	"regcache/internal/core"
	"regcache/internal/obs"
	"regcache/internal/prog"
)

// benchConfig is one named machine the cycle-loop benchmarks and the
// allocation gates run.
type benchConfig struct {
	name string
	cfg  Config
}

// benchConfigs returns the machines the cycle-loop benchmarks and
// allocation gates sweep: each register-storage kind exercises a
// different set of hot paths (fill requests only exist behind a cache,
// port-filtering schemes arbitrate them, the two-level file ticks its own
// copy engine, the oracle consults the pre-pass table at rename), and the
// four-context machine shares one window among four streams.
func benchConfigs() []benchConfig {
	cache := DefaultConfig()

	mono := DefaultConfig()
	mono.Scheme = SchemeMonolithic

	two := DefaultConfig()
	two.Scheme = SchemeTwoLevel

	oracle := DefaultConfig()
	oracle.OracleUses = true

	lru := DefaultConfig()
	lru.CacheCfg.Insert = core.InsertAlways
	lru.CacheCfg.Replace = core.ReplaceLRU
	lru.CacheCfg.Index = core.IndexRoundRobin

	// The explore-mt machines: 32x2 use-based caches with two backing-file
	// read ports, at one and four contexts.
	port := DefaultConfig()
	port.CacheCfg.Entries = 32
	port.ReadPorts = 2

	portT4 := port
	portT4.Threads = 4

	// sweep-cold's largest geometry: a 128-entry 4-way use-based cache,
	// whose miss classification keeps a 128-way fully-associative shadow.
	big := DefaultConfig()
	big.CacheCfg.Entries = 128
	big.CacheCfg.Ways = 4

	return []benchConfig{
		{"use-cache", cache},
		{"use-128x4", big},
		{"lru-cache", lru},
		{"mono", mono},
		{"twolevel", two},
		{"oracle", oracle},
		{"port", port},
		{"port-t4", portT4},
	}
}

// newBenchPipeline builds a pipeline running the named benchmark on every
// context of cfg (contexts past the first run context-salted
// regenerations of its profile, as multithreaded sweeps do).
func newBenchPipeline(tb testing.TB, cfg Config, bench string) *Pipeline {
	tb.Helper()
	prof, ok := prog.ProfileByName(bench)
	if !ok {
		tb.Fatalf("unknown benchmark %q", bench)
	}
	if cfg.Threads <= 1 {
		return New(cfg, prog.MustGenerate(prof))
	}
	progs := make([]*prog.Program, cfg.Threads)
	for tid := range progs {
		progs[tid] = prog.MustGenerate(prog.ThreadProfile(prof, tid))
	}
	return NewMulti(cfg, progs)
}

// warmPipeline builds a pipeline on the given benchmark and runs it past
// the transient: pools populated, wheel buckets at their steady capacity,
// caches and predictors warm.
func warmPipeline(tb testing.TB, cfg Config, bench string, warmInsts uint64) *Pipeline {
	tb.Helper()
	pl := newBenchPipeline(tb, cfg, bench)
	pl.Run(warmInsts)
	return pl
}

// BenchmarkCycleSteadyState measures the warmed cycle loop per machine on
// a light (gzip) and a memory-bound (mcf) benchmark. ns/op is ns per
// simulated cycle and allocs/op is allocations per cycle (the gate below
// pins it to zero).
func BenchmarkCycleSteadyState(b *testing.B) {
	for _, bench := range []string{"gzip", "mcf"} {
		for _, bc := range benchConfigs() {
			b.Run(bench+"/"+bc.name, func(b *testing.B) {
				pl := warmPipeline(b, bc.cfg, bench, 10_000)
				startRetired := pl.Stats.Retired
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pl.Cycle()
				}
				b.StopTimer()
				retired := pl.Stats.Retired - startRetired
				b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "sim-insts/s")
			})
		}
	}
}

// timedCycle advances the machine one cycle exactly as Cycle does, adding
// each stage's wall time to spent.
func timedCycle(pl *Pipeline, spent *[len(cycleStages)]time.Duration) {
	pl.startCycle()
	t := time.Now()
	for i := range cycleStages {
		cycleStages[i].run(pl)
		now := time.Now()
		spent[i] += now.Sub(t)
		t = now
	}
}

// BenchmarkStageBreakdown attributes cycle time to the pipeline stages of
// cycleStages, reporting per-stage ns/cycle metrics. Stage cost shares
// guide optimization; the absolute per-stage numbers carry the
// timestamping overhead (~tens of ns), which cancels out of comparisons
// across runs.
func BenchmarkStageBreakdown(b *testing.B) {
	pl := warmPipeline(b, DefaultConfig(), "gzip", 10_000)
	var spent [len(cycleStages)]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timedCycle(pl, &spent)
	}
	b.StopTimer()
	for i := range cycleStages {
		b.ReportMetric(float64(spent[i].Nanoseconds())/float64(b.N), cycleStages[i].name+"-ns/cycle")
	}
}

// TestStageBreakdownMatchesCycle: the timed cycle of the stage breakdown
// leaves exactly the state Cycle does, on a small cache behind one
// backing read port (whose fills queue for the port) and on the two-level
// file (whose copy engine ticks every cycle).
func TestStageBreakdownMatchesCycle(t *testing.T) {
	port := DefaultConfig()
	port.CacheCfg.Entries = 16
	port.ReadPorts = 1
	two := DefaultConfig()
	two.Scheme = SchemeTwoLevel
	two.TwoLevelCfg.L1Entries = 96
	for _, bc := range []benchConfig{{"port-p1", port}, {"twolevel", two}} {
		t.Run(bc.name, func(t *testing.T) {
			const cycles = 20_000
			plain := newBenchPipeline(t, bc.cfg, "gcc")
			timed := newBenchPipeline(t, bc.cfg, "gcc")
			var spent [len(cycleStages)]time.Duration
			for i := 0; i < cycles; i++ {
				plain.Cycle()
				timedCycle(timed, &spent)
			}
			if plain.Stats != timed.Stats {
				t.Fatalf("stats differ after %d cycles:\n Cycle: %+v\n timed: %+v", cycles, plain.Stats, timed.Stats)
			}
			if want, got := plain.counters(), timed.counters(); !reflect.DeepEqual(want, got) {
				t.Fatalf("results differ after %d cycles:\n Cycle: %+v\n timed: %+v", cycles, want, got)
			}
		})
	}
}

// TestCycleLoopZeroAlloc is the allocation gate for the steady-state cycle
// loop: after warmup, batches of cycles must allocate nothing, for every
// scheme. A failure here means an optimization regressed the pooling or
// scratch-reuse discipline (see DESIGN.md, performance engineering).
func TestCycleLoopZeroAlloc(t *testing.T) {
	for _, bc := range benchConfigs() {
		t.Run(bc.name, func(t *testing.T) {
			pl := warmPipeline(t, bc.cfg, "gzip", 40_000)
			// Average over batches of cycles: a single cycle can legally hit
			// a rare amortized growth path (undo-log compaction keeps
			// capacity, but a deeper-than-ever speculative excursion may
			// still grow a buffer once), while the per-cycle average over
			// thousands of cycles must be exactly zero.
			const batch = 2000
			allocs := testing.AllocsPerRun(5, func() {
				for i := 0; i < batch; i++ {
					pl.Cycle()
				}
			})
			if allocs > 0 {
				t.Errorf("%s: steady-state cycle loop allocates %.2f objects per %d cycles, want 0", bc.name, allocs, batch)
			}
		})
	}
}

// TestCycleLoopZeroAllocSpans extends the allocation gate to the
// tracing-disabled span hooks: RunWindowSpans with a nil *Span brackets
// the cycle loop with StartChild/SetInt/End calls that must all no-op
// without allocating. This is the exact sequence the interval executor
// runs per window when no request-scoped trace is active.
func TestCycleLoopZeroAllocSpans(t *testing.T) {
	pl := warmPipeline(t, DefaultConfig(), "gzip", 40_000)
	var sp *obs.Span // the disabled path
	const batch = 2000
	allocs := testing.AllocsPerRun(5, func() {
		wsp := sp.StartChild("warmup")
		for i := 0; i < batch/2; i++ {
			pl.Cycle()
		}
		if wsp != nil {
			wsp.SetInt("retired", int64(pl.Stats.Retired))
			wsp.End()
		}
		msp := sp.StartChild("measured")
		for i := 0; i < batch/2; i++ {
			pl.Cycle()
		}
		if msp != nil {
			msp.SetInt("retired", int64(pl.Stats.Retired))
			msp.End()
		}
	})
	if allocs > 0 {
		t.Errorf("nil-span window hooks allocate %.2f objects per %d cycles, want 0", allocs, batch)
	}
}
