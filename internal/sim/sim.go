// Package sim binds workloads to machine configurations and runs them:
// named register-storage schemes (the paper's design points and reference
// designs), per-benchmark runs, and suite-level aggregation. The experiment
// harness (internal/experiments) is built on top of it.
package sim

import (
	"context"
	"errors"
	"fmt"

	"regcache/internal/core"
	"regcache/internal/isa"
	"regcache/internal/obs"
	"regcache/internal/pipeline"
	"regcache/internal/prog"
	"regcache/internal/stats"
	"regcache/internal/twolevel"
)

// Scheme is a named register-storage configuration.
type Scheme struct {
	Name           string
	Kind           pipeline.Scheme
	RFLatency      int // monolithic file latency
	BackingLatency int // backing file latency behind a cache
	Cache          core.Config
	TwoLevel       twolevel.Config
	OracleUses     bool // perfect degree-of-use knowledge (ablation)

	// ReadPorts is the read-port count of the backing file behind a cache
	// (cache kind only). Fills beyond the ports wait in arrival order,
	// charging port-conflict stalls. 0 is the default single port of the
	// paper's machine; a scheme with ReadPorts > 0 is a port-filtering
	// design point and carries the count in its name.
	ReadPorts int
}

// WithOracle returns a copy of s using perfect degree-of-use knowledge
// from a functional pre-pass instead of the history-based predictor.
func (s Scheme) WithOracle() Scheme {
	s.OracleUses = true
	s.Name = s.Name + "-oracle"
	return s
}

// WithPorts returns a copy of s as a port-filtering design point: the
// backing file behind the cache exposes n read ports per cycle. Only
// valid on cache-kind schemes (Validate rejects the rest).
func (s Scheme) WithPorts(n int) Scheme {
	s.ReadPorts = n
	s.Name = fmt.Sprintf("%s-p%d", s.Name, n)
	return s
}

// PortFiltered returns the port-filtering family's canonical member: the
// paper's use-based cache with the backing file constrained to n read
// ports. Cache hits bypass the backing file entirely, so the cache acts as
// a port filter — the fewer the ports, the more the hit rate matters.
func PortFiltered(entries, ways int, index core.IndexScheme, ports int) Scheme {
	s := UseBased(entries, ways, index)
	s.Name = fmt.Sprintf("port-%dx%d-%s-p%d", entries, ways, index, ports)
	s.ReadPorts = ports
	return s
}

// Monolithic returns the baseline machine with an L-cycle register file.
func Monolithic(latency int) Scheme {
	return Scheme{
		Name:      fmt.Sprintf("rf-%dcyc", latency),
		Kind:      pipeline.SchemeMonolithic,
		RFLatency: latency,
	}
}

// UseBased returns the paper's register cache with use-based insertion and
// replacement at the given geometry and index scheme.
func UseBased(entries, ways int, index core.IndexScheme) Scheme {
	return Scheme{
		Name: fmt.Sprintf("use-%dx%d-%s", entries, ways, index),
		Kind: pipeline.SchemeCache,
		Cache: core.Config{
			Entries: entries, Ways: ways,
			Insert: core.InsertUseBased, Replace: core.ReplaceUseBased,
			Index: index, ClassifyMisses: true,
		},
	}
}

// LRU returns the Yung & Wilhelm reference cache.
func LRU(entries, ways int, index core.IndexScheme) Scheme {
	return Scheme{
		Name: fmt.Sprintf("lru-%dx%d-%s", entries, ways, index),
		Kind: pipeline.SchemeCache,
		Cache: core.Config{
			Entries: entries, Ways: ways,
			Insert: core.InsertAlways, Replace: core.ReplaceLRU,
			Index: index, ClassifyMisses: true,
		},
	}
}

// NonBypass returns the Cruz et al. reference cache.
func NonBypass(entries, ways int, index core.IndexScheme) Scheme {
	return Scheme{
		Name: fmt.Sprintf("nb-%dx%d-%s", entries, ways, index),
		Kind: pipeline.SchemeCache,
		Cache: core.Config{
			Entries: entries, Ways: ways,
			Insert: core.InsertNonBypass, Replace: core.ReplaceLRU,
			Index: index, ClassifyMisses: true,
		},
	}
}

// TwoLevel returns the optimistic two-level register file with the given
// L1 capacity and L2 latency. The name carries the L2 latency only when it
// is not the default 2 cycles (twolevel-96, twolevel-96-l3).
func TwoLevel(l1Entries, l2Latency int) Scheme {
	name := fmt.Sprintf("twolevel-%d", l1Entries)
	if l2Latency != 2 {
		name = fmt.Sprintf("%s-l%d", name, l2Latency)
	}
	return Scheme{
		Name:     name,
		Kind:     pipeline.SchemeTwoLevel,
		TwoLevel: twolevel.Config{L1Entries: l1Entries, L2Latency: l2Latency},
	}
}

// WithBacking returns a copy of s with the backing file latency overridden
// (Figure 12 sweeps it).
func (s Scheme) WithBacking(latency int) Scheme {
	s.BackingLatency = latency
	s.Name = fmt.Sprintf("%s-b%d", s.Name, latency)
	return s
}

// Options controls a run. Validate holds every rule on its fields, the
// execution entries apply it before anything runs, and withDefaults then
// canonicalizes valid options into the memo and store key.
type Options struct {
	Insts          uint64 // dynamic instructions per benchmark
	TrackLifetimes bool
	TrackLive      bool

	// Intervals > 1 splits the run into that many checkpointed intervals
	// simulated in parallel (see internal/pipeline interval.go): exact
	// architectural stream, bounded warm-up error on timing counters,
	// reported in Result.Intervals. Intervals == 1 routes through the
	// interval executor with a single interval — bit-identical to serial,
	// the guard mode the tests pin. 0 is the serial path. Lifetime/live
	// tracking needs one pipeline spanning the whole run, so those runs
	// stay serial (K=1) or are rejected (K>1).
	Intervals int
	// WarmupInsts is the per-interval warm-up budget when Intervals > 1
	// (0 selects DefaultWarmupInsts). Ignored when serial.
	WarmupInsts uint64

	// Threads > 1 runs a multithreaded workload: that many deterministic
	// per-context instruction streams (context 0 is the benchmark itself,
	// higher contexts are context-salted regenerations of the same
	// profile) interleaved over one shared physical file, register cache,
	// and memory hierarchy. Threads <= 1 canonicalizes to 0, the classic
	// single-context machine. Multithreaded runs are always serial:
	// interval checkpoints capture a single-context stream, so Intervals > 1
	// is rejected and a single interval is canonicalized away.
	Threads int
	// Interleave is the round-robin fetch quantum in instructions for
	// multithreaded runs (0 selects the pipeline default, 8). Only valid
	// with Threads > 1.
	Interleave int
}

// MaxThreads bounds wire-supplied thread counts. The pipeline requires
// 64 architectural registers of identity physical state per context plus
// headroom to rename (Threads*64 + 64 <= NumPRegs = 512), and the service
// plane wants a hard ceiling on per-request cost; 4 contexts covers the
// documented experiments with margin below the structural limit of 7.
const MaxThreads = 4

// MaxIntervals bounds Options.Intervals. Each interval is a pipeline
// running concurrently with the others, so K costs K pipelines of memory
// at once; 64 leaves room for a 64-core host.
const MaxIntervals = 64

// Validate checks every run-option rule. Errors name the SweepRequest
// JSON field at fault, so the daemon returns them as 400s verbatim and the
// CLIs, whose flags share the names, as usage errors.
func (o Options) Validate() error {
	tracking := o.TrackLifetimes || o.TrackLive
	switch {
	case o.Intervals < 0 || o.Intervals > MaxIntervals:
		return fmt.Errorf("sim: intervals %d outside [0, %d]", o.Intervals, MaxIntervals)
	case o.Threads < 0 || o.Threads > MaxThreads:
		return fmt.Errorf("sim: threads %d outside the machine bound [0, %d]", o.Threads, MaxThreads)
	case o.Interleave < 0:
		return fmt.Errorf("sim: interleave %d must be >= 0", o.Interleave)
	case o.Interleave > 0 && o.Threads <= 1:
		return errors.New("sim: interleave requires threads > 1")
	case o.Intervals > 1 && o.Threads > 1:
		return errors.New("sim: intervals > 1 cannot be combined with threads > 1 (checkpoints capture one context)")
	case o.Intervals > 1 && tracking:
		return errors.New("sim: intervals > 1 cannot be combined with lifetime tracking (it needs one pipeline)")
	case o.Threads > 1 && tracking:
		return errors.New("sim: threads > 1 cannot be combined with lifetime tracking (it follows one context)")
	}
	return nil
}

// ValidatePoint checks one (scheme, options) point: the options' rules,
// then the rule that needs both. The paper's two-level L1 "must contain at
// least one more register than the number of architected registers" —
// per hardware context, as each pins its architectural state — or it
// never renames and the run deadlocks. Scheme.Validate stays thread-blind;
// the execution entries and the sweep resolve step call this.
func ValidatePoint(s Scheme, o Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if s.Kind != pipeline.SchemeTwoLevel {
		return nil
	}
	l1 := s.TwoLevel.L1Entries
	if l1 == 0 {
		l1 = twolevel.DefaultL1Entries
	}
	if contexts := max(1, o.Threads); l1 <= contexts*isa.NumArchRegs {
		return fmt.Errorf("sim: scheme %q: two-level L1 of %d entries cannot rename at threads %d (it needs more than %d architected registers x %d context(s))",
			s.Name, l1, o.Threads, isa.NumArchRegs, contexts)
	}
	return nil
}

// DefaultInsts is the per-benchmark instruction budget used when an
// Options.Insts is zero. The paper simulates 2 B instructions per
// benchmark. A budget this short still measures a machine warming its
// caches and predictors: the hmean IPC of mono:3 over the 12 benchmarks
// is 1.25 at 150k instructions against 2.96 at 9.6M, and the design
// point's gain over it +1.11% against +2.32%. The ordering of the
// schemes holds, which is what the figures compare (see DESIGN.md).
const DefaultInsts = 200_000

// DefaultWarmupInsts is the per-interval warm-up budget when interval
// parallelism is requested without one. The slow-warming state (memory
// hierarchy tags) is functionally warmed by the checkpoint capture pass,
// so the window only has to re-converge predictors, register cache
// contents, and fill timing, which settle within a few thousand
// instructions; the measured stats delta against serial runs is
// documented in DESIGN.md.
const DefaultWarmupInsts = 5_000

func (o Options) withDefaults() Options {
	if o.Insts == 0 {
		o.Insts = DefaultInsts
	}
	if o.Intervals < 0 {
		o.Intervals = 0
	}
	if o.Threads <= 1 {
		o.Threads = 0
		o.Interleave = 0
	} else {
		// Multithreaded runs are serial (see Threads doc); canonicalize
		// the interval knobs away so they never fork memo or store keys.
		o.Intervals = 0
		if o.Interleave < 1 {
			o.Interleave = 8
		}
	}
	if o.Intervals <= 1 {
		// Serial and single-interval runs have no warm-up window; zeroing
		// the knob keeps memo and store keys canonical.
		o.WarmupInsts = 0
	} else if o.WarmupInsts == 0 {
		o.WarmupInsts = DefaultWarmupInsts
	}
	return o
}

// config assembles the pipeline configuration for a scheme.
func (s Scheme) config(o Options) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Scheme = s.Kind
	if s.RFLatency != 0 {
		cfg.RFLatency = s.RFLatency
	}
	if s.BackingLatency != 0 {
		cfg.BackingLatency = s.BackingLatency
	}
	if s.Kind == pipeline.SchemeCache {
		cfg.CacheCfg = s.Cache
		cfg.ReadPorts = s.ReadPorts
	}
	if s.Kind == pipeline.SchemeTwoLevel {
		cfg.TwoLevelCfg = s.TwoLevel
	}
	cfg.OracleUses = s.OracleUses
	cfg.TrackLifetimes = o.TrackLifetimes
	cfg.TrackLiveCounts = o.TrackLive
	if o.Threads > 1 {
		cfg.Threads = o.Threads
		cfg.InterleaveGranularity = o.Interleave
	}
	return cfg
}

// Execute simulates one benchmark under one scheme directly, bypassing the
// memoizing run layer; the workload cache supplies the pre-decoded program
// and (for oracle schemes) the shared functional pre-pass table. Use it
// when the simulation itself is the thing being measured (throughput
// benchmarks); everything else should go through a Runner.
func Execute(wc *WorkloadCache, bench string, s Scheme, o Options) (pipeline.Result, error) {
	if err := ValidatePoint(s, o); err != nil {
		return pipeline.Result{}, err
	}
	res, _, err := executeTraced(wc, bench, s, o, nil)
	return res, err
}

// executeTraced is Execute with request-scoped tracing: a non-nil sp
// gains per-interval warm-up/measured child spans and a stitch span, and
// the returned stitchNS reports the merge cost for the per-point timing
// breakdown. A nil sp (every caller outside the service runner) is the
// zero-overhead path. The options must already have passed ValidatePoint.
func executeTraced(wc *WorkloadCache, bench string, s Scheme, o Options, sp *obs.Span) (res pipeline.Result, stitchNS int64, err error) {
	o = o.withDefaults()
	if o.Intervals >= 1 && !o.TrackLifetimes && !o.TrackLive {
		return executeIntervals(wc, bench, s, o, sp)
	}
	pl, err := buildPipeline(wc, bench, s, o)
	if err != nil {
		return pipeline.Result{}, 0, err
	}
	return pl.RunWindowSpans(0, o.Insts, sp), 0, nil
}

// executeIntervals runs one benchmark as Options.Intervals checkpointed
// parallel intervals, drawing the program, checkpoint set and (for oracle
// schemes) pre-pass table from the workload cache so repeated interval
// runs against the same workload share one functional pass.
func executeIntervals(wc *WorkloadCache, bench string, s Scheme, o Options, sp *obs.Span) (pipeline.Result, int64, error) {
	p, err := wc.Program(bench)
	if err != nil {
		return pipeline.Result{}, 0, err
	}
	cks, err := wc.Checkpoints(bench, o.Insts, o.Intervals, o.WarmupInsts)
	if err != nil {
		return pipeline.Result{}, 0, err
	}
	var tm pipeline.IntervalTiming
	io := pipeline.IntervalOptions{
		K: o.Intervals, Warmup: o.WarmupInsts, Checkpoints: cks,
		Span: sp, Timing: &tm,
	}
	if s.OracleUses {
		if io.Oracle, err = wc.Oracle(bench, o.Insts); err != nil {
			return pipeline.Result{}, 0, err
		}
	}
	res := pipeline.RunIntervals(s.config(o), p, o.Insts, io)
	return res, tm.StitchNS, nil
}

// buildPipeline constructs (but does not run) a pipeline with every shared
// workload artifact injected.
func buildPipeline(wc *WorkloadCache, bench string, s Scheme, o Options) (*pipeline.Pipeline, error) {
	if o.Threads > 1 {
		progs := make([]*prog.Program, o.Threads)
		for tid := range progs {
			p, err := wc.ThreadProgram(bench, tid)
			if err != nil {
				return nil, err
			}
			progs[tid] = p
		}
		pl := pipeline.NewMulti(s.config(o), progs)
		if s.OracleUses {
			// Context 0's table is the shared single-context pre-pass;
			// higher contexts build theirs lazily on first run (their
			// programs are not shared outside this thread count).
			t, err := wc.Oracle(bench, o.Insts)
			if err != nil {
				return nil, err
			}
			pl.SetOracle(t)
		}
		return pl, nil
	}
	p, err := wc.Program(bench)
	if err != nil {
		return nil, err
	}
	pl := pipeline.New(s.config(o), p)
	if s.OracleUses {
		t, err := wc.Oracle(bench, o.Insts)
		if err != nil {
			return nil, err
		}
		pl.SetOracle(t)
	}
	return pl, nil
}

// RunPipeline builds (but does not run) a pipeline for callers that need
// access to internal structures after the run (lifetime tracking, tracers).
// The shared workload cache supplies the program and any oracle table.
// Only the options are validated: building never deadlocks, so a caller
// that goes on to run the pipeline checks ValidatePoint itself.
func RunPipeline(bench string, s Scheme, o Options) (*pipeline.Pipeline, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return buildPipeline(DefaultWorkloads(), bench, s, o.withDefaults())
}

// SuiteResult aggregates one scheme's results over a benchmark suite.
type SuiteResult struct {
	Scheme   Scheme
	PerBench map[string]pipeline.Result
	Order    []string
}

// RunSuite simulates every named benchmark under the scheme on the
// runner's pool (each pipeline is independent and deterministic). On
// error it still returns the partial SuiteResult alongside every
// benchmark's error, joined.
func (r *Runner) RunSuite(benches []string, s Scheme, o Options) (*SuiteResult, error) {
	sr := &SuiteResult{Scheme: s, PerBench: make(map[string]pipeline.Result), Order: benches}
	// Submit everything up front so the pool can run benchmarks in
	// parallel, then collect in order, draining every result: one bad
	// benchmark must not discard the others' work.
	ctx := context.Background()
	entries := make([]*memoEntry, len(benches))
	var errs []error
	for i, b := range benches {
		e, _, err := r.submit(ctx, Job{Scheme: s, Bench: b, Opts: o})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s/%s: %w", s.Name, b, err))
			continue
		}
		entries[i] = e
	}
	for i, b := range benches {
		if entries[i] == nil {
			continue
		}
		res, err := r.wait(ctx, entries[i])
		if err != nil {
			errs = append(errs, fmt.Errorf("%s/%s: %w", s.Name, b, err))
			continue
		}
		sr.PerBench[b] = res
	}
	return sr, errors.Join(errs...)
}

// RelIPC returns the geometric-mean speedup of this suite result over a
// baseline run of the same benchmarks — the aggregate used for the
// performance figures, where a per-benchmark normalization keeps
// memory-bound outliers from drowning the register-storage effects.
func (sr *SuiteResult) RelIPC(base *SuiteResult) float64 {
	var ratios []float64
	for _, b := range sr.Order {
		bb, ok := base.PerBench[b]
		if !ok || bb.IPC() == 0 {
			continue
		}
		ratios = append(ratios, sr.PerBench[b].IPC()/bb.IPC())
	}
	return stats.GeoMean(ratios)
}

// MeanMissRate returns the arithmetic mean per-operand register cache miss
// rate (zero for non-cache schemes).
func (sr *SuiteResult) MeanMissRate() float64 {
	var xs []float64
	for _, b := range sr.Order {
		r := sr.PerBench[b]
		xs = append(xs, r.Cache.MissRate())
	}
	return stats.Mean(xs)
}

// MeanMissRateBy returns the mean per-operand miss rate of one category.
func (sr *SuiteResult) MeanMissRateBy(k core.MissKind) float64 {
	var xs []float64
	for _, b := range sr.Order {
		r := sr.PerBench[b]
		xs = append(xs, r.Cache.MissRateBy(k))
	}
	return stats.Mean(xs)
}

// Mean applies f per benchmark and returns the arithmetic mean.
func (sr *SuiteResult) Mean(f func(pipeline.Result) float64) float64 {
	var xs []float64
	for _, b := range sr.Order {
		xs = append(xs, f(sr.PerBench[b]))
	}
	return stats.Mean(xs)
}

// Benchmarks returns the full built-in suite.
func Benchmarks() []string { return prog.ProfileNames() }

// QuickBenchmarks returns a 4-benchmark subset spanning the behaviour space
// (predictable loops, call-heavy, memory-bound, branchy) for fast sweeps.
func QuickBenchmarks() []string { return []string{"gzip", "gcc", "mcf", "twolf"} }
