package pipeline

import (
	"fmt"
	"strings"

	"regcache/internal/core"
	"regcache/internal/obs"
	"regcache/internal/stats"
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

	RFWrites uint64 // writebacks to the monolithic/two-level file
}

// Register publishes the live pipeline counters and an IPC gauge into a
// metrics registry under prefix (e.g. "pipeline"). The snapshot func reads
// s at evaluation time, so /debug/vars shows the simulation advancing.
func (s *Stats) Register(r *obs.Registry, prefix string) {
	r.Func(prefix+".counters", func() any { return *s })
	r.Gauge(prefix+".ipc", func() float64 { return ratio(s.Retired, s.Cycles) })
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

// Result holds the counters of one simulation run, or of the measured
// window of one. Each reported ratio is a method over them, so a window is
// one counter subtraction and an interval stitch one counter sum
// (stats.SubCounters, stats.AddCounters).
type Result struct {
	Scheme Scheme
	Stats  Stats

	// Register cache counters (zero value for non-cache schemes).
	Cache core.Stats

	// Use predictor counters.
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

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 { return ratio(r.Stats.Retired, r.Stats.Cycles) }

// BypassFrac returns the fraction of operand reads served by the bypass
// network.
func (r Result) BypassFrac() float64 {
	return ratio(r.Stats.BypassReads, r.Stats.BypassReads+r.Stats.RFReads+r.Cache.Reads)
}

// UsePredAccuracy returns the fraction of use-predictor trainings whose
// prediction was correct.
func (r Result) UsePredAccuracy() float64 { return ratio(r.UsePredCorrect, r.UsePredTrains) }

// UsePredCoverage returns the fraction of use-predictor lookups that hit.
func (r Result) UsePredCoverage() float64 { return ratio(r.UsePredHits, r.UsePredLookups) }

// CacheReadBW returns register cache reads per cycle (Figure 9).
func (r Result) CacheReadBW() float64 { return ratio(r.Cache.Reads, r.Stats.Cycles) }

// CacheWriteBW returns register cache writes per cycle (Figure 9).
func (r Result) CacheWriteBW() float64 { return ratio(r.Cache.Writes, r.Stats.Cycles) }

// RFReadBW returns register file reads per cycle: the monolithic or
// two-level file's, or the backing file's behind a register cache
// (Figure 9).
func (r Result) RFReadBW() float64 {
	return ratio(r.Stats.RFReads+r.BackingReads, r.Stats.Cycles)
}

// RFWriteBW returns register file writes per cycle, counted like
// RFReadBW.
func (r Result) RFWriteBW() float64 {
	return ratio(r.Stats.RFWrites+r.BackingWrites, r.Stats.Cycles)
}

func ratio(a, b uint64) float64 { return stats.Ratio(float64(a), float64(b)) }

// counters gathers every counter of the pipeline and its components. It
// first closes the register cache's occupancy integral at the current
// cycle, so a warm-up snapshot keeps the warm-up window's entries×cycles
// out of the measured window; the piecewise integration continues from
// here unperturbed.
func (pl *Pipeline) counters() Result {
	r := Result{
		Scheme:         pl.cfg.Scheme,
		Stats:          pl.Stats,
		UsePredLookups: pl.upred.Lookups,
		UsePredHits:    pl.upred.Hits,
		UsePredTrains:  pl.upred.TrainEvents,
		UsePredCorrect: pl.upred.Correct,
	}
	if len(pl.threads) > 1 {
		r.Threads = make([]ThreadStats, len(pl.threads))
		for i := range pl.threads {
			r.Threads[i] = pl.threads[i].stats
			r.Threads[i].Thread = i
		}
	}
	if pl.cache != nil {
		pl.cache.FinishSampling(pl.now)
		r.Cache = pl.cache.Stats
		r.BackingReads, r.BackingWrites = pl.backing.Reads, pl.backing.Writes
	}
	if pl.tlf != nil {
		r.TLMigrations, r.TLRecoveryStalls, r.TLRenameStalls = pl.tlf.Migrations, pl.tlf.RecoveryStalls, pl.tlf.RenameStalls
	}
	return r
}

// String renders a human-readable run summary.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s IPC=%.3f (%d insts / %d cycles)\n",
		r.Scheme, r.IPC(), r.Stats.Retired, r.Stats.Cycles)
	fmt.Fprintf(&b, "branches: %d mispredicts (%.2f/1k insts); replays %d; squashed %d\n",
		r.Stats.Mispredicts, 1000*float64(r.Stats.Mispredicts)/float64(max64(r.Stats.Retired, 1)),
		r.Stats.Replays, r.Stats.Squashed)
	fmt.Fprintf(&b, "operands: bypass %.1f%% (stage1 %.0f%% of bypasses)\n", 100*r.BypassFrac(),
		100*float64(r.Stats.BypassS1Reads)/float64(max64(r.Stats.BypassReads, 1)))
	if r.Scheme == SchemeCache {
		fmt.Fprintf(&b, "cache: miss rate %.4f (filtered %.4f capacity %.4f conflict %.4f); RC miss events %d\n",
			r.Cache.MissRate(), r.Cache.MissRateBy(core.MissFiltered),
			r.Cache.MissRateBy(core.MissCapacity), r.Cache.MissRateBy(core.MissConflict),
			r.Stats.RCMissEvents)
		fmt.Fprintf(&b, "bandwidth/cycle: cache r %.2f w %.2f; file r %.3f w %.2f\n",
			r.CacheReadBW(), r.CacheWriteBW(), r.RFReadBW(), r.RFWriteBW())
		fmt.Fprintf(&b, "use predictor: accuracy %.3f coverage %.3f\n",
			r.UsePredAccuracy(), r.UsePredCoverage())
	}
	return b.String()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
