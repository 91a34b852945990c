package pipeline

import (
	"fmt"
	"reflect"
	"strings"

	"regcache/internal/core"
	"regcache/internal/obs"
)

// Stats accumulates pipeline-level counters during simulation.
type Stats struct {
	Cycles  uint64
	Fetched uint64
	Renamed uint64
	Issued  uint64
	Retired uint64

	SrcOperands   uint64 // renamed source operands (real registers)
	BypassReads   uint64 // operands supplied by the bypass network
	BypassS1Reads uint64 // first-stage (ALU feedback) bypasses
	RFReads       uint64 // operands read from the monolithic/two-level file

	Mispredicts    uint64 // recovered branch mispredictions
	PredictedWrong uint64 // fetched branches whose prediction was wrong
	Squashed       uint64

	Replays               uint64 // operand-window replays (load-hit shadows etc.)
	RCMissEvents          uint64 // register cache misses that stalled a reader
	SuppressedIssueCycles uint64 // cycles issue was suppressed by the replay rule
	LoadMisses            uint64

	UnknownPredictions uint64 // renames that used the unknown default

	WrongPathS1Counts   uint64 // squashed consumers that had counted a stage-1 bypass
	WrongPathS1Undoable uint64 // of those, producer had not yet written back at squash

	FreelistStalls    uint64
	DispatchStalls    uint64
	FrontQStalls      uint64
	StoreRetireStalls uint64
	ICacheStallCycles uint64
	FetchLostCycles   uint64

	// PortConflictStalls counts request-cycles that backing-file reads
	// waited for a read port, charged when the read is requested.
	PortConflictStalls uint64

	RFWrites uint64 // two-level scheme writeback count
}

// Sub returns the counter delta s - prev (the measured window of a run
// that discarded a warm-up prefix). Every field is a uint64 counter, so
// the delta is taken generically: a future field addition is subtracted
// automatically instead of silently leaking warm-up counts into windows.
func (s Stats) Sub(prev Stats) Stats {
	sv := reflect.ValueOf(&s).Elem()
	pv := reflect.ValueOf(prev)
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		f.SetUint(f.Uint() - pv.Field(i).Uint())
	}
	return s
}

// Add returns the counter sum s + o (the interval stitcher's aggregation;
// summed Cycles are per-core cycles, which approximate the serial cycle
// count when warm-up has converged each interval's state).
func (s Stats) Add(o Stats) Stats {
	sv := reflect.ValueOf(&s).Elem()
	ov := reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		f.SetUint(f.Uint() + ov.Field(i).Uint())
	}
	return s
}

// Register publishes the live pipeline counters and an IPC gauge into a
// metrics registry under prefix (e.g. "pipeline"). The snapshot func reads
// s at evaluation time, so /debug/vars shows the simulation advancing.
func (s *Stats) Register(r *obs.Registry, prefix string) {
	r.Func(prefix+".counters", func() any { return *s })
	r.Gauge(prefix+".ipc", func() float64 {
		if s.Cycles == 0 {
			return 0
		}
		return float64(s.Retired) / float64(s.Cycles)
	})
}

// ThreadStats is one hardware context's slice of the machine counters in
// a multithreaded run. Per-context cache reads/hits/misses are counted at
// the pipeline's read stage (the shared cache's own counters are context-
// blind), so reads = hits + misses holds per context and the per-context
// sums reconcile with the machine totals — the invariants the results
// validator pins.
type ThreadStats struct {
	Thread int `json:"thread"`

	Fetched     uint64 `json:"fetched"`
	Retired     uint64 `json:"retired"`
	Squashed    uint64 `json:"squashed"`
	Mispredicts uint64 `json:"mispredicts"`

	CacheReads  uint64 `json:"cache_reads"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	PortConflictStalls uint64 `json:"port_conflict_stalls"`
}

// Sub returns the counter delta s - prev (warm-up window removal).
func (s ThreadStats) Sub(prev ThreadStats) ThreadStats {
	return ThreadStats{
		Thread:             s.Thread,
		Fetched:            s.Fetched - prev.Fetched,
		Retired:            s.Retired - prev.Retired,
		Squashed:           s.Squashed - prev.Squashed,
		Mispredicts:        s.Mispredicts - prev.Mispredicts,
		CacheReads:         s.CacheReads - prev.CacheReads,
		CacheHits:          s.CacheHits - prev.CacheHits,
		CacheMisses:        s.CacheMisses - prev.CacheMisses,
		PortConflictStalls: s.PortConflictStalls - prev.PortConflictStalls,
	}
}

// Result bundles the outputs of one simulation run.
type Result struct {
	Config Config
	Stats  Stats

	IPC float64

	// Register cache metrics (zero value for non-cache schemes).
	Cache core.Stats

	// Bandwidths per cycle (Figure 9).
	CacheReadBW  float64
	CacheWriteBW float64
	RFReadBW     float64
	RFWriteBW    float64

	// Operand sourcing.
	BypassFrac float64 // fraction of operand reads served by bypass

	// Predictor quality.
	UsePredAccuracy float64
	UsePredCoverage float64

	// Use predictor raw counters behind the two ratios above (the interval
	// stitcher re-derives merged accuracy/coverage from their sums).
	UsePredLookups uint64
	UsePredHits    uint64
	UsePredTrains  uint64
	UsePredCorrect uint64

	// Backing file behaviour.
	BackingReads  uint64
	BackingWrites uint64

	// Two-level file behaviour.
	TLMigrations     uint64
	TLRecoveryStalls uint64
	TLRenameStalls   uint64

	// How an interval-parallel run was assembled (nil for serial runs).
	Intervals *IntervalStats `json:",omitempty"`

	// Per-context counter blocks (nil for single-context runs, keeping
	// single-context results byte-identical to the pre-multithreading
	// pipeline).
	Threads []ThreadStats `json:",omitempty"`
}

// windowSnap freezes every counter feeding a Result at the warm-up/measure
// boundary so windowResult can report the measured window's deltas. The
// zero value is the start-of-run snapshot.
type windowSnap struct {
	stats   Stats
	cache   core.Stats
	threads []ThreadStats

	backingReads, backingWrites                    uint64
	monoReads, monoWrites                          uint64
	tlMigrations, tlRecoveryStalls, tlRenameStalls uint64
	upLookups, upHits, upTrains, upCorrect         uint64
}

// snapshotWindow captures the boundary snapshot. For the cache scheme it
// first closes the occupancy integral at the boundary, keeping the warm-up
// window's entries×cycles out of the measured delta; the piecewise
// integration then continues from here unperturbed.
func (pl *Pipeline) snapshotWindow() windowSnap {
	s := windowSnap{stats: pl.Stats}
	if len(pl.threads) > 1 {
		s.threads = make([]ThreadStats, len(pl.threads))
		for i := range pl.threads {
			s.threads[i] = pl.threads[i].stats
		}
	}
	if pl.cache != nil {
		pl.cache.FinishSampling(pl.now)
		s.cache = pl.cache.Stats
		s.backingReads, s.backingWrites = pl.backing.Reads, pl.backing.Writes
	}
	if pl.mono != nil {
		s.monoReads, s.monoWrites = pl.mono.Reads, pl.mono.Writes
	}
	if pl.tlf != nil {
		s.tlMigrations, s.tlRecoveryStalls, s.tlRenameStalls = pl.tlf.Migrations, pl.tlf.RecoveryStalls, pl.tlf.RenameStalls
	}
	s.upLookups, s.upHits = pl.upred.Lookups, pl.upred.Hits
	s.upTrains, s.upCorrect = pl.upred.TrainEvents, pl.upred.Correct
	return s
}

// result assembles the Result from the pipeline's final state.
func (pl *Pipeline) result() Result { return pl.windowResult(windowSnap{}) }

// windowResult assembles the Result for everything after snap. With a zero
// snapshot every delta is the raw counter and every formula reduces to the
// serial one, so a warm-up-free run is bit-identical to the pre-window
// implementation.
func (pl *Pipeline) windowResult(snap windowSnap) Result {
	st := pl.Stats.Sub(snap.stats)
	r := Result{Config: pl.cfg, Stats: st}
	if len(pl.threads) > 1 {
		r.Threads = make([]ThreadStats, len(pl.threads))
		for i := range pl.threads {
			ts := pl.threads[i].stats
			if snap.threads != nil {
				ts = ts.Sub(snap.threads[i])
			}
			ts.Thread = i
			r.Threads[i] = ts
		}
	}
	if st.Cycles > 0 {
		r.IPC = float64(st.Retired) / float64(st.Cycles)
	}
	cyc := float64(st.Cycles)
	if pl.cache != nil {
		r.Cache = pl.cache.Stats.Delta(snap.cache)
		r.CacheReadBW = float64(r.Cache.Reads) / cyc
		r.CacheWriteBW = float64(r.Cache.Writes) / cyc
		r.BackingReads = pl.backing.Reads - snap.backingReads
		r.BackingWrites = pl.backing.Writes - snap.backingWrites
		r.RFReadBW = float64(r.BackingReads) / cyc
		r.RFWriteBW = float64(r.BackingWrites) / cyc
	}
	if pl.mono != nil {
		r.RFReadBW = float64(pl.mono.Reads-snap.monoReads) / cyc
		r.RFWriteBW = float64(pl.mono.Writes-snap.monoWrites) / cyc
	}
	if pl.tlf != nil {
		r.RFReadBW = float64(st.RFReads) / cyc
		r.RFWriteBW = float64(st.RFWrites) / cyc
		r.TLMigrations = pl.tlf.Migrations - snap.tlMigrations
		r.TLRecoveryStalls = pl.tlf.RecoveryStalls - snap.tlRecoveryStalls
		r.TLRenameStalls = pl.tlf.RenameStalls - snap.tlRenameStalls
	}
	totalOperandReads := st.BypassReads + st.RFReads
	if pl.cache != nil {
		totalOperandReads += r.Cache.Reads
	}
	if totalOperandReads > 0 {
		r.BypassFrac = float64(st.BypassReads) / float64(totalOperandReads)
	}
	r.UsePredLookups = pl.upred.Lookups - snap.upLookups
	r.UsePredHits = pl.upred.Hits - snap.upHits
	r.UsePredTrains = pl.upred.TrainEvents - snap.upTrains
	r.UsePredCorrect = pl.upred.Correct - snap.upCorrect
	if r.UsePredTrains > 0 {
		r.UsePredAccuracy = float64(r.UsePredCorrect) / float64(r.UsePredTrains)
	}
	if r.UsePredLookups > 0 {
		r.UsePredCoverage = float64(r.UsePredHits) / float64(r.UsePredLookups)
	}
	return r
}

// String renders a human-readable run summary.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s IPC=%.3f (%d insts / %d cycles)\n",
		r.Config.Scheme, r.IPC, r.Stats.Retired, r.Stats.Cycles)
	fmt.Fprintf(&b, "branches: %d mispredicts (%.2f/1k insts); replays %d; squashed %d\n",
		r.Stats.Mispredicts, 1000*float64(r.Stats.Mispredicts)/float64(max64(r.Stats.Retired, 1)),
		r.Stats.Replays, r.Stats.Squashed)
	fmt.Fprintf(&b, "operands: bypass %.1f%% (stage1 %.0f%% of bypasses)\n", 100*r.BypassFrac,
		100*float64(r.Stats.BypassS1Reads)/float64(max64(r.Stats.BypassReads, 1)))
	if r.Config.Scheme == SchemeCache {
		fmt.Fprintf(&b, "cache: miss rate %.4f (filtered %.4f capacity %.4f conflict %.4f); RC miss events %d\n",
			r.Cache.MissRate(), r.Cache.MissRateBy(core.MissFiltered),
			r.Cache.MissRateBy(core.MissCapacity), r.Cache.MissRateBy(core.MissConflict),
			r.Stats.RCMissEvents)
		fmt.Fprintf(&b, "bandwidth/cycle: cache r %.2f w %.2f; file r %.3f w %.2f\n",
			r.CacheReadBW, r.CacheWriteBW, r.RFReadBW, r.RFWriteBW)
		fmt.Fprintf(&b, "use predictor: accuracy %.3f coverage %.3f\n",
			r.UsePredAccuracy, r.UsePredCoverage)
	}
	return b.String()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
