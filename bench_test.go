// Package regcache's root benchmark harness: one testing.B benchmark per
// figure and table of the paper's evaluation. Each benchmark regenerates
// its experiment's rows (run with -v to see them) at a reduced budget;
// BenchmarkSimulatorThroughput and the run-layer benchmarks report
// simulated instructions per second, so simulator performance regressions
// are visible too.
//
// The authoritative full-suite regeneration is `go run ./cmd/experiments`;
// these benchmarks exist so `go test -bench=.` exercises every experiment
// end to end.
package regcache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"regcache/internal/core"
	"regcache/internal/experiments"
	"regcache/internal/sim"
	"regcache/internal/store"
)

// benchOptions keeps the per-iteration cost manageable: two contrasting
// benchmarks (cache-friendly gzip, branchy twolf) at a reduced budget.
func benchOptions() experiments.Options {
	return experiments.Options{Insts: 20_000, Benches: []string{"gzip", "twolf"}}
}

// runExperiment drives one registered experiment b.N times, each on a
// fresh runner, so every iteration simulates its points instead of
// replaying a memo that an earlier iteration or benchmark filled.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(0)
		rep, err := e.Run(r, o)
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + rep.String())
		}
	}
}

func BenchmarkFig1Lifetimes(b *testing.B)       { runExperiment(b, "fig1") }
func BenchmarkFig2LiveRegisters(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig6SizeAssoc(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkFig7Indexing(b *testing.B)        { runExperiment(b, "fig7") }
func BenchmarkFig8MissBreakdown(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9Bandwidth(b *testing.B)       { runExperiment(b, "fig9") }
func BenchmarkFig10Filtering(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkTable2Metrics(b *testing.B)       { runExperiment(b, "table2") }
func BenchmarkFig11SizeSweep(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12BackingLatency(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkSec3Stats(b *testing.B)           { runExperiment(b, "sec3") }
func BenchmarkSec52MissModel(b *testing.B)      { runExperiment(b, "sec52") }
func BenchmarkSec53Ablations(b *testing.B)      { runExperiment(b, "sec53") }

// BenchmarkSimulatorThroughput measures raw simulation speed on the
// design-point configuration (the number the other benchmarks' budgets are
// tuned around). It uses sim.Execute, the unmemoized path: every iteration
// really simulates.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const insts = 50_000
	s := sim.UseBased(64, 2, core.IndexFilteredRR)
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(sim.DefaultWorkloads(), "gzip", s, sim.Options{Insts: insts}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkIntervalThroughput measures the interval-parallel executor
// against the serial path on the design-point configuration at the default
// budget: the serial sub-benchmark is the reference, the k sub-benchmark
// runs one interval per core. The checkpoint capture pass is memoized in
// the shared workload cache (as in real use, where one capture serves a
// whole sweep), so steady-state iterations measure the parallel simulation
// itself.
func BenchmarkIntervalThroughput(b *testing.B) {
	const insts = 200_000
	s := sim.UseBased(64, 2, core.IndexFilteredRR)
	run := func(b *testing.B, o sim.Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Execute(sim.DefaultWorkloads(), "gzip", s, o); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "sim-insts/s")
	}
	b.Run("serial", func(b *testing.B) {
		run(b, sim.Options{Insts: insts})
	})
	b.Run(fmt.Sprintf("k%d", runtime.NumCPU()), func(b *testing.B) {
		run(b, sim.Options{Insts: insts, Intervals: runtime.NumCPU()})
	})
}

func BenchmarkOracleSpectrum(b *testing.B) { runExperiment(b, "oracle") }

// benchSchemes is the scheme set the run-layer benchmarks schedule: the
// three Section 5.4 design points plus the shared monolithic baseline.
func benchSchemes() []sim.Scheme {
	return []sim.Scheme{
		sim.Monolithic(3),
		sim.LRU(64, 2, core.IndexRoundRobin),
		sim.NonBypass(64, 2, core.IndexRoundRobin),
		sim.UseBased(64, 2, core.IndexFilteredRR),
	}
}

// BenchmarkRunnerColdSuite measures run-layer throughput with an empty
// memo: every scheme×benchmark job simulates on the worker pool.
func BenchmarkRunnerColdSuite(b *testing.B) {
	o := benchOptions()
	r := sim.NewRunner(0)
	defer r.Close()
	var insts uint64
	for i := 0; i < b.N; i++ {
		r.Reset()
		r.Prefetch(o.Benches, benchSchemes(), sim.Options{Insts: o.Insts})
		for _, s := range benchSchemes() {
			for _, bench := range o.Benches {
				if _, err := r.Run(context.Background(), bench, s, sim.Options{Insts: o.Insts}); err != nil {
					b.Fatal(err)
				}
				insts += o.Insts
			}
		}
	}
	st := r.Stats()
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
	b.ReportMetric(float64(st.JobsRun)/float64(b.N), "jobs/op")
}

// BenchmarkRunnerMemoizedSuite measures the warm path: after the first
// iteration every request is a cache hit, so this benchmarks the memo
// lookup and single-flight join overhead the experiments pay on shared
// baselines.
func BenchmarkRunnerMemoizedSuite(b *testing.B) {
	o := benchOptions()
	r := sim.NewRunner(0)
	defer r.Close()
	r.Prefetch(o.Benches, benchSchemes(), sim.Options{Insts: o.Insts})
	warm := sim.RunnerStats{}
	for i := 0; i < b.N; i++ {
		for _, s := range benchSchemes() {
			for _, bench := range o.Benches {
				if _, err := r.Run(context.Background(), bench, s, sim.Options{Insts: o.Insts}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if i == 0 {
			warm = r.Stats()
			b.ResetTimer()
		}
	}
	st := r.Stats().Sub(warm)
	if b.N > 1 && st.JobsRun != 0 {
		b.Fatalf("warm runner re-simulated %d jobs", st.JobsRun)
	}
	b.ReportMetric(float64(st.CacheHits)/float64(max(b.N-1, 1)), "hits/op")
}

// storeBenchValue is sized like a real stored result payload (~1.5 KiB
// for a cache-scheme run).
func storeBenchValue() []byte {
	v := make([]byte, 3<<9)
	for i := range v {
		v[i] = byte(i)
	}
	return v
}

func storeBenchKey(i int) store.Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return store.Key(sha256.Sum256(b[:]))
}

// BenchmarkStoreAppend measures the durable store's append path (framing,
// CRC, write, index update) at a realistic payload size.
func BenchmarkStoreAppend(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := storeBenchValue()
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(storeBenchKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreLookup measures the read path: index probe, ReadAt, and
// the per-read CRC re-verification.
func BenchmarkStoreLookup(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const live = 256
	val := storeBenchValue()
	for i := 0; i < live; i++ {
		if err := s.Put(storeBenchKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(storeBenchKey(i % live)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerWarmStore measures a warm restart through the run layer:
// the store holds every suite point, the memo is cleared each iteration
// (a fresh process generation), so every request is a store hit — index
// probe, CRC check, payload decode — instead of a simulation.
func BenchmarkRunnerWarmStore(b *testing.B) {
	o := benchOptions()
	opts := sim.Options{Insts: o.Insts}
	dir := b.TempDir()
	rs, err := sim.OpenResultStore(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()
	r := sim.NewRunner(0)
	defer r.Close()
	if err := r.UseStore(rs); err != nil {
		b.Fatal(err)
	}
	points := 0
	for _, s := range benchSchemes() {
		for _, bench := range o.Benches {
			if _, err := r.Run(context.Background(), bench, s, opts); err != nil {
				b.Fatal(err)
			}
			points++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset() // next generation: memo cold, store warm
		r.ResetStats()
		for _, s := range benchSchemes() {
			for _, bench := range o.Benches {
				if _, err := r.Run(context.Background(), bench, s, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
		if st := r.Stats(); st.JobsRun != 0 || st.StoreHits != uint64(points) {
			b.Fatalf("warm store generation simulated: %+v", st)
		}
	}
	b.ReportMetric(float64(points), "points/op")
}
