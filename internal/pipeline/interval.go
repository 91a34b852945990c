package pipeline

// Intra-run interval parallelism. A serial simulation is a chain of
// dependent cycles, but the *architectural* trajectory of the program is
// known in advance by the same functional pre-pass that powers the oracle
// degree-of-use mode: values live only in the functional executor (the
// register cache, backing file and two-level models are timing-only), so
// the complete state a pipeline needs to start mid-program is the
// executor's registers, store overlay and PC, plus the correct-path
// definition count that aligns oracle-table lookups.
//
// The interval runner cuts the instruction budget into K contiguous
// intervals, captures a checkpoint at (or a warm-up window before) each
// boundary in one functional pass, and simulates every interval on its own
// goroutine from its checkpoint. Architectural state is carried exactly.
// Microarchitectural state is split by how long its history is: the
// memory hierarchy's tag arrays (the slow-warming state — a 1 MB L2
// streams in over ~100k instructions) are functionally warmed during the
// capture pass and restored from the checkpoint, while the fast-warming
// remainder (branch and use predictors, register cache contents, fill
// timing) re-converges inside a warm-up window whose counters are
// discarded. The stitcher then sums the measured windows and re-derives
// the ratio metrics, reporting per-interval skew and warm-up overhead so
// the bounded error stays visible. One interval with no warm-up and no
// warm image is exactly the serial run — the K=1 bit-identity guarantee
// the tests pin.

import (
	"fmt"
	"sync"
	"time"

	"regcache/internal/isa"
	"regcache/internal/memsys"
	"regcache/internal/obs"
	"regcache/internal/prog"
)

// Checkpoint is one architectural boundary of the functional pre-pass: the
// executor state after Inst instructions, the number of correct-path
// definitions before it (the oracle table index base), and a functional
// warm image of the memory hierarchy's tag state at that point. Mem is
// nil for the program-entry checkpoint (a cold machine is exact there) —
// and for checkpoints captured without warming.
type Checkpoint struct {
	Inst    uint64 // instructions executed before this point
	DefBase uint64 // register-writing instructions among them
	State   prog.ExecState
	Mem     *memsys.WarmState
}

// IntervalStarts splits total instructions into k contiguous intervals and
// returns their start offsets (the first is always 0). k is clamped to
// [1, total] so every interval measures at least one instruction.
func IntervalStarts(total uint64, k int) []uint64 {
	if k < 1 {
		k = 1
	}
	if total > 0 && uint64(k) > total {
		k = int(total)
	}
	starts := make([]uint64, k)
	base, rem := total/uint64(k), total%uint64(k)
	var at uint64
	for i := range starts {
		starts[i] = at
		at += base
		if uint64(i) < rem {
			at++
		}
	}
	return starts
}

// CapturePoints returns the checkpoint instruction counts for the given
// interval starts: warmup instructions before each start, clamped at the
// program entry (interval 0 therefore has no warm-up window).
func CapturePoints(starts []uint64, warmup uint64) []uint64 {
	pts := make([]uint64, len(starts))
	for i, s := range starts {
		w := warmup
		if w > s {
			w = s
		}
		pts[i] = s - w
	}
	return pts
}

// CaptureCheckpoints functionally executes the program once and snapshots
// the architectural state at each requested instruction count, warming a
// memory-hierarchy image (configured by memCfg) with the correct-path
// fetch and data stream along the way. points must be non-decreasing. If
// the program ends before a point, the checkpoint rests at the final
// state (built-in benchmarks never terminate inside any realistic budget,
// matching the serial Run's assumption). The result is immutable and safe
// to share across concurrently constructed pipelines.
func CaptureCheckpoints(p *prog.Program, points []uint64, memCfg memsys.Config) []Checkpoint {
	e := prog.NewExec(p)
	warm := memsys.New(memCfg)
	out := make([]Checkpoint, 0, len(points))
	var n, defs uint64
	for _, pt := range points {
		for n < pt {
			in := p.InstAt(e.PC())
			if in == nil {
				break
			}
			pc := e.PC()
			s := e.StepInst(in)
			warm.WarmFetch(pc)
			switch in.Op {
			case isa.OpLoad:
				warm.WarmLoad(s.MemAddr)
			case isa.OpStore:
				warm.WarmStore(s.MemAddr)
			}
			if in.HasDest() {
				defs++
			}
			n++
		}
		// The pre-pass never speculates: commit the undo log so the
		// snapshot sees a clean architectural point (and the log stays
		// bounded across long captures).
		e.Commit(e.Checkpoint())
		ck := Checkpoint{Inst: n, DefBase: defs, State: e.State()}
		if n > 0 {
			// The entry checkpoint stays cold: starting cold there is
			// exact (it is what the serial machine does), and keeping Mem
			// nil preserves the K=1 bit-identity structurally.
			ck.Mem = warm.Snapshot()
		}
		out = append(out, ck)
	}
	return out
}

// NewAt builds a pipeline positioned at a checkpoint: the functional
// executor resumes from the captured architectural state, the oracle
// definition counter from the captured base, and the memory hierarchy's
// tag arrays from the functional warm image (when present). Everything
// else (predictors, register models, in-flight fill timing) starts cold,
// exactly as New leaves it — that is the state a warm-up window
// re-converges. NewAt with the entry checkpoint (Inst 0) is identical to
// New.
func NewAt(cfg Config, p *prog.Program, ck Checkpoint) *Pipeline {
	cfg = cfg.withDefaults()
	if cfg.Threads > 1 {
		panic("pipeline: interval checkpoints are single-context; Threads > 1 runs serially")
	}
	pl := newPipeline(cfg, []*prog.Program{p}, []*prog.Exec{prog.NewExecAt(p, ck.State)})
	pl.threads[0].defCounter = ck.DefBase
	pl.threads[0].instOffset = ck.Inst
	if ck.Mem != nil {
		pl.mem.Restore(ck.Mem)
	}
	return pl
}

// IntervalStats reports how an interval-parallel run was assembled: the
// split, the warm-up overhead paid for timing-state convergence, and the
// per-interval measured cycle counts (whose spread is the load imbalance).
type IntervalStats struct {
	K              int      // intervals simulated concurrently
	WarmupInsts    uint64   // configured per-interval warm-up budget
	WarmupRetired  uint64   // warm-up instructions retired and discarded, summed
	WarmupCycles   uint64   // cycles spent inside warm-up windows, summed
	IntervalCycles []uint64 // measured cycles per interval, in program order
}

// Skew returns the ratio of the longest to the shortest measured interval
// (1.0 = perfectly balanced; 0 when undefined).
func (s *IntervalStats) Skew() float64 {
	if len(s.IntervalCycles) == 0 {
		return 0
	}
	lo, hi := s.IntervalCycles[0], s.IntervalCycles[0]
	for _, c := range s.IntervalCycles[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// WarmupFrac returns warm-up cycles as a fraction of all simulated cycles
// — the throughput overhead paid for the bounded-error stitching.
func (s *IntervalStats) WarmupFrac() float64 {
	var measured uint64
	for _, c := range s.IntervalCycles {
		measured += c
	}
	if total := s.WarmupCycles + measured; total > 0 {
		return float64(s.WarmupCycles) / float64(total)
	}
	return 0
}

// IntervalTiming receives wall-clock phase measurements of one interval
// run when attached to IntervalOptions — the stitch component of the
// service's per-point timing breakdown. It is deliberately NOT part of
// Result: Results must stay a pure function of (config, program, budget)
// for the determinism and bit-identity gates.
type IntervalTiming struct {
	StitchNS int64 // wall time spent merging the per-interval results
}

// IntervalOptions configures RunIntervals.
type IntervalOptions struct {
	K           int          // interval count (clamped to [1, total])
	Warmup      uint64       // warm-up instructions before each interval after the first
	Oracle      *OracleTable // pre-built oracle table (OracleUses schemes)
	Checkpoints []Checkpoint // pre-captured checkpoints; nil captures here

	// Span, when non-nil, records one child span per interval (each with
	// warm-up and measured sub-spans) plus a stitch span — the request-
	// scoped trace of the daemon. Nil (the default everywhere outside the
	// service) is the zero-overhead disabled path.
	Span *obs.Span
	// Timing, when non-nil, receives phase wall-clock measurements.
	Timing *IntervalTiming
}

// RunIntervals simulates total instructions as K checkpointed intervals on
// K goroutines and stitches the per-interval results. With K=1 the result
// is bit-identical to New(cfg, p).Run(total); with K>1 the architectural
// stream is exact while timing counters carry a bounded warm-up error
// reported in Result.Intervals. Checkpoints, when supplied, must have been
// captured at CapturePoints(IntervalStarts(total, K), Warmup).
func RunIntervals(cfg Config, p *prog.Program, total uint64, o IntervalOptions) Result {
	starts := IntervalStarts(total, o.K)
	k := len(starts)
	cks := o.Checkpoints
	if cks == nil {
		cks = CaptureCheckpoints(p, CapturePoints(starts, o.Warmup), cfg.Mem)
	}
	if len(cks) != k {
		panic(fmt.Sprintf("pipeline: %d checkpoints for %d intervals", len(cks), k))
	}
	results := make([]Result, k)
	warmRet := make([]uint64, k)
	warmCyc := make([]uint64, k)
	panics := make([]any, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		end := total
		if i+1 < k {
			end = starts[i+1]
		}
		wg.Add(1)
		go func(i int, start, end uint64) {
			defer wg.Done()
			// Hold interval panics (deadlock backstop, config validation)
			// and re-raise on the caller, where the run layer's panic→error
			// conversion can see them.
			defer func() { panics[i] = recover() }()
			isp := o.Span.StartChild("interval")
			ck := cks[i]
			pl := NewAt(cfg, p, ck)
			if o.Oracle != nil {
				pl.SetOracle(o.Oracle)
			}
			results[i] = pl.RunWindowSpans(start-ck.Inst, end-start, isp)
			warmRet[i] = pl.Stats.Retired - results[i].Stats.Retired
			warmCyc[i] = pl.Stats.Cycles - results[i].Stats.Cycles
			if isp != nil {
				isp.SetInt("index", int64(i))
				isp.SetInt("start_inst", int64(start))
				isp.SetInt("warmup_retired", int64(warmRet[i]))
				isp.SetInt("measured_cycles", int64(results[i].Stats.Cycles))
				isp.End()
			}
		}(i, starts[i], end)
	}
	wg.Wait()
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
	if k == 1 {
		// One interval from the entry with no warm-up is the serial run.
		return results[0]
	}
	ssp := o.Span.StartChild("stitch")
	stitchStart := time.Now()
	m := MergeResults(results)
	if o.Timing != nil {
		o.Timing.StitchNS = time.Since(stitchStart).Nanoseconds()
	}
	ssp.End()
	ist := &IntervalStats{K: k, WarmupInsts: o.Warmup, IntervalCycles: make([]uint64, k)}
	for i, r := range results {
		ist.WarmupRetired += warmRet[i]
		ist.WarmupCycles += warmCyc[i]
		ist.IntervalCycles[i] = r.Stats.Cycles
	}
	m.Intervals = ist
	return m
}

// MergeResults stitches per-interval window results into one run-level
// Result: counters are summed and the derived ratio metrics recomputed
// from the sums (summed Cycles are per-core cycles, so merged IPC is total
// retired work over total simulated time). The monolithic file's raw
// read/write counts are not part of Result, so its bandwidths recombine as
// cycle-weighted means of the per-interval rates; every other derived
// metric is exact in the summed counters.
func MergeResults(parts []Result) Result {
	if len(parts) == 0 {
		return Result{}
	}
	m := Result{Config: parts[0].Config}
	for _, p := range parts {
		m.Stats = m.Stats.Add(p.Stats)
		m.Cache = m.Cache.Merge(p.Cache)
		m.BackingReads += p.BackingReads
		m.BackingWrites += p.BackingWrites
		m.TLMigrations += p.TLMigrations
		m.TLRecoveryStalls += p.TLRecoveryStalls
		m.TLRenameStalls += p.TLRenameStalls
		m.UsePredLookups += p.UsePredLookups
		m.UsePredHits += p.UsePredHits
		m.UsePredTrains += p.UsePredTrains
		m.UsePredCorrect += p.UsePredCorrect
	}
	if m.Stats.Cycles > 0 {
		m.IPC = float64(m.Stats.Retired) / float64(m.Stats.Cycles)
	}
	cyc := float64(m.Stats.Cycles)
	switch m.Config.Scheme {
	case SchemeCache:
		m.CacheReadBW = float64(m.Cache.Reads) / cyc
		m.CacheWriteBW = float64(m.Cache.Writes) / cyc
		m.RFReadBW = float64(m.BackingReads) / cyc
		m.RFWriteBW = float64(m.BackingWrites) / cyc
	case SchemeMonolithic:
		var rd, wr float64
		for _, p := range parts {
			rd += p.RFReadBW * float64(p.Stats.Cycles)
			wr += p.RFWriteBW * float64(p.Stats.Cycles)
		}
		m.RFReadBW, m.RFWriteBW = rd/cyc, wr/cyc
	case SchemeTwoLevel:
		m.RFReadBW = float64(m.Stats.RFReads) / cyc
		m.RFWriteBW = float64(m.Stats.RFWrites) / cyc
	}
	totalOperandReads := m.Stats.BypassReads + m.Stats.RFReads + m.Cache.Reads
	if totalOperandReads > 0 {
		m.BypassFrac = float64(m.Stats.BypassReads) / float64(totalOperandReads)
	}
	if m.UsePredTrains > 0 {
		m.UsePredAccuracy = float64(m.UsePredCorrect) / float64(m.UsePredTrains)
	}
	if m.UsePredLookups > 0 {
		m.UsePredCoverage = float64(m.UsePredHits) / float64(m.UsePredLookups)
	}
	return m
}
