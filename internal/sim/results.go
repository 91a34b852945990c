package sim

// This file defines the versioned machine-readable results schema both
// binaries emit with -json and that benchmark-trajectory tooling consumes
// (BENCH_*.json). The schema is curated rather than a raw dump of
// pipeline.Result so its field set — and therefore every downstream
// consumer — survives internal refactors; bump ResultsSchemaVersion on any
// incompatible change.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"regcache/internal/core"
	"regcache/internal/pipeline"
	"regcache/internal/twolevel"
)

// ResultsSchemaVersion identifies the RunRecord/ResultsFile layout.
//
// v2: RunRecord gains an optional per-job timing block (queue wait, store
// lookup, simulate, stitch — the telemetry plane's latency breakdown) and
// RunnerRecord gains the store-corrupt counter. The durable result store
// fingerprints this version, so bumping it invalidates old store entries
// automatically.
//
// v3: multithreaded workloads and the port-filtering scheme family.
// SchemeRecord gains read_ports; RunRecord gains threads (the requested
// context count), a per-context thread_stats block, and the
// port_conflict_stalls counter. All additions are omitempty, so a
// single-context monolithic or two-level run serializes byte-identically
// to v2 (the golden-fingerprint guard pins this). Since simulator version
// 4 every cache run counts port-conflict stalls, the unported ones on
// their single read port. ReadResults accepts any version in [1, current].
const ResultsSchemaVersion = 3

// SchemeRecord serializes a scheme's full configuration.
type SchemeRecord struct {
	Name           string           `json:"name"`
	Kind           string           `json:"kind"` // monolithic, cache, two-level
	RFLatency      int              `json:"rf_latency,omitempty"`
	BackingLatency int              `json:"backing_latency,omitempty"`
	OracleUses     bool             `json:"oracle_uses,omitempty"`
	Cache          *core.Config     `json:"cache,omitempty"`
	TwoLevel       *twolevel.Config `json:"two_level,omitempty"`
	ReadPorts      int              `json:"read_ports,omitempty"` // backing read ports (cache kind); 0 = one
}

// CacheRecord serializes the register cache's behaviour in one run: the
// counters behind the Figure 8 miss split, the Figure 10 filtering
// fractions, and the Table 2 residency metrics.
type CacheRecord struct {
	Reads          uint64  `json:"reads"`
	Hits           uint64  `json:"hits"`
	Misses         uint64  `json:"misses"`
	MissRate       float64 `json:"miss_rate"`
	MissFiltered   uint64  `json:"miss_filtered"`
	MissCapacity   uint64  `json:"miss_capacity"`
	MissConflict   uint64  `json:"miss_conflict"`
	Writes         uint64  `json:"writes"`
	InitialWrites  uint64  `json:"initial_writes"`
	Fills          uint64  `json:"fills"`
	WritesFiltered uint64  `json:"writes_filtered"`
	Evictions      uint64  `json:"evictions"`
	Invalidations  uint64  `json:"invalidations"`
	Victims        uint64  `json:"victims"`
	VictimsZeroUse uint64  `json:"victims_zero_use"`
	Residencies    uint64  `json:"residencies"`
	MeanLifetime   float64 `json:"mean_entry_lifetime_cycles"`
	MeanOccupancy  float64 `json:"mean_occupancy_entries"`
}

// RunRecord is one (scheme, benchmark) simulation's results.
type RunRecord struct {
	Scheme SchemeRecord `json:"scheme"`
	Bench  string       `json:"bench"`
	Insts  uint64       `json:"insts"`

	Cycles  uint64  `json:"cycles"`
	Retired uint64  `json:"retired"`
	IPC     float64 `json:"ipc"`

	BypassFrac      float64 `json:"bypass_frac"`
	Mispredicts     uint64  `json:"mispredicts"`
	Replays         uint64  `json:"replays"`
	RCMissEvents    uint64  `json:"rc_miss_events"`
	UsePredAccuracy float64 `json:"use_pred_accuracy"`
	UsePredCoverage float64 `json:"use_pred_coverage"`

	BackingReads  uint64 `json:"backing_reads,omitempty"`
	BackingWrites uint64 `json:"backing_writes,omitempty"`

	Cache *CacheRecord `json:"cache,omitempty"`

	// Threads is the requested hardware-context count for multithreaded
	// workloads (absent = single-context), ThreadStats the per-context
	// counter block, and PortConflictStalls the request-cycles backing-file
	// reads waited for a read port. All schema v3; absent before.
	Threads            int            `json:"threads,omitempty"`
	ThreadStats        []ThreadRecord `json:"thread_stats,omitempty"`
	PortConflictStalls uint64         `json:"port_conflict_stalls,omitempty"`

	Intervals *IntervalRecord `json:"intervals,omitempty"`

	// Timing is the service-side latency breakdown for this point (schema
	// v2, present only when the requester asked for timings). It describes
	// where wall-clock went, never what was computed — two runs of the same
	// point differ here while agreeing everywhere else.
	Timing *TimingRecord `json:"timing,omitempty"`
}

// TimingRecord serializes one point's PointTiming.
type TimingRecord struct {
	Outcome       string  `json:"outcome"` // simulated, store, coalesced
	QueueWaitMS   float64 `json:"queue_wait_ms"`
	StoreLookupMS float64 `json:"store_lookup_ms,omitempty"`
	SimMS         float64 `json:"sim_ms,omitempty"`
	StitchMS      float64 `json:"stitch_ms,omitempty"`
}

// NewTimingRecord serializes t.
func NewTimingRecord(t PointTiming) *TimingRecord {
	return &TimingRecord{
		Outcome:       t.Outcome,
		QueueWaitMS:   t.QueueWaitMS,
		StoreLookupMS: t.StoreLookupMS,
		SimMS:         t.SimMS,
		StitchMS:      t.StitchMS,
	}
}

// ThreadRecord serializes one hardware context's counters in a
// multithreaded run (schema v3). The per-context blocks must reconcile
// with the machine totals — cmd/checkresults enforces retired summing to
// the run total and reads = hits + misses per context.
type ThreadRecord struct {
	Thread             int    `json:"thread"`
	Fetched            uint64 `json:"fetched"`
	Retired            uint64 `json:"retired"`
	Squashed           uint64 `json:"squashed"`
	Mispredicts        uint64 `json:"mispredicts"`
	CacheReads         uint64 `json:"cache_reads,omitempty"`
	CacheHits          uint64 `json:"cache_hits,omitempty"`
	CacheMisses        uint64 `json:"cache_misses,omitempty"`
	PortConflictStalls uint64 `json:"port_conflict_stalls,omitempty"`
}

// IntervalRecord serializes how an interval-parallel run was stitched: the
// split, the discarded warm-up work, and the load-balance spread. Serial
// runs (and K=1 guard runs, which are bit-identical to serial) omit it.
type IntervalRecord struct {
	K             int     `json:"k"`
	WarmupInsts   uint64  `json:"warmup_insts"`
	WarmupRetired uint64  `json:"warmup_retired"`
	WarmupCycles  uint64  `json:"warmup_cycles"`
	WarmupFrac    float64 `json:"warmup_frac"`
	Skew          float64 `json:"skew"`
}

// RunnerRecord serializes the run layer's counters for one process.
type RunnerRecord struct {
	Workers        int     `json:"workers"`
	JobsRun        uint64  `json:"jobs_run"`
	CacheHits      uint64  `json:"cache_hits"`
	StoreHits      uint64  `json:"store_hits,omitempty"`
	StoreWrites    uint64  `json:"store_writes,omitempty"`
	StoreErrors    uint64  `json:"store_errors,omitempty"`
	StoreCorrupt   uint64  `json:"store_corrupt,omitempty"`
	IntervalRuns   uint64  `json:"interval_runs,omitempty"`
	Errors         uint64  `json:"errors"`
	SimWallSeconds float64 `json:"sim_wall_seconds"`
}

// ResultsFile is the top-level -json document.
type ResultsFile struct {
	SchemaVersion int           `json:"schema_version"`
	Generator     string        `json:"generator"` // regsim, experiments
	CreatedAt     string        `json:"created_at,omitempty"`
	WallSeconds   float64       `json:"wall_seconds"`
	Runner        *RunnerRecord `json:"runner,omitempty"`
	Runs          []RunRecord   `json:"runs"`
}

// NewSchemeRecord serializes s.
func NewSchemeRecord(s Scheme) SchemeRecord {
	rec := SchemeRecord{
		Name:           s.Name,
		Kind:           s.Kind.String(),
		RFLatency:      s.RFLatency,
		BackingLatency: s.BackingLatency,
		OracleUses:     s.OracleUses,
	}
	switch s.Kind {
	case pipeline.SchemeCache:
		c := s.Cache
		rec.Cache = &c
		rec.ReadPorts = s.ReadPorts
	case pipeline.SchemeTwoLevel:
		t := s.TwoLevel
		rec.TwoLevel = &t
	}
	return rec
}

// NewRunRecord serializes one run's results.
func NewRunRecord(bench string, s Scheme, o Options, r pipeline.Result) RunRecord {
	o = o.withDefaults()
	rec := RunRecord{
		Scheme:          NewSchemeRecord(s),
		Bench:           bench,
		Insts:           o.Insts,
		Cycles:          r.Stats.Cycles,
		Retired:         r.Stats.Retired,
		IPC:             r.IPC,
		BypassFrac:      r.BypassFrac,
		Mispredicts:     r.Stats.Mispredicts,
		Replays:         r.Stats.Replays,
		RCMissEvents:    r.Stats.RCMissEvents,
		UsePredAccuracy: r.UsePredAccuracy,
		UsePredCoverage: r.UsePredCoverage,
		BackingReads:    r.BackingReads,
		BackingWrites:   r.BackingWrites,
	}
	if o.Threads > 1 {
		rec.Threads = o.Threads
	}
	rec.PortConflictStalls = r.Stats.PortConflictStalls
	for _, ts := range r.Threads {
		rec.ThreadStats = append(rec.ThreadStats, ThreadRecord{
			Thread:             ts.Thread,
			Fetched:            ts.Fetched,
			Retired:            ts.Retired,
			Squashed:           ts.Squashed,
			Mispredicts:        ts.Mispredicts,
			CacheReads:         ts.CacheReads,
			CacheHits:          ts.CacheHits,
			CacheMisses:        ts.CacheMisses,
			PortConflictStalls: ts.PortConflictStalls,
		})
	}
	if iv := r.Intervals; iv != nil {
		rec.Intervals = &IntervalRecord{
			K:             iv.K,
			WarmupInsts:   iv.WarmupInsts,
			WarmupRetired: iv.WarmupRetired,
			WarmupCycles:  iv.WarmupCycles,
			WarmupFrac:    iv.WarmupFrac(),
			Skew:          iv.Skew(),
		}
	}
	if s.Kind == pipeline.SchemeCache {
		cs := r.Cache
		rec.Cache = &CacheRecord{
			Reads:          cs.Reads,
			Hits:           cs.Hits,
			Misses:         cs.Misses,
			MissRate:       cs.MissRate(),
			MissFiltered:   cs.MissBy[core.MissFiltered],
			MissCapacity:   cs.MissBy[core.MissCapacity],
			MissConflict:   cs.MissBy[core.MissConflict],
			Writes:         cs.Writes,
			InitialWrites:  cs.InitialWrites,
			Fills:          cs.Fills,
			WritesFiltered: cs.WritesFiltered,
			Evictions:      cs.Evictions,
			Invalidations:  cs.Invalidations,
			Victims:        cs.Victims,
			VictimsZeroUse: cs.VictimsZeroUse,
			Residencies:    cs.Residencies,
			MeanLifetime:   cs.MeanEntryLifetime(),
			MeanOccupancy:  cs.MeanOccupancy(r.Stats.Cycles),
		}
	}
	return rec
}

// Records serializes the suite's per-benchmark results in suite order
// (benchmarks that failed are absent).
func (sr *SuiteResult) Records(o Options) []RunRecord {
	out := make([]RunRecord, 0, len(sr.Order))
	for _, b := range sr.Order {
		r, ok := sr.PerBench[b]
		if !ok {
			continue
		}
		out = append(out, NewRunRecord(b, sr.Scheme, o, r))
	}
	return out
}

// NewResultsFile assembles the top-level document. runner may be nil.
func NewResultsFile(generator string, runs []RunRecord, runner *Runner, wall time.Duration) *ResultsFile {
	f := &ResultsFile{
		SchemaVersion: ResultsSchemaVersion,
		Generator:     generator,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		WallSeconds:   wall.Seconds(),
		Runs:          runs,
	}
	if runner != nil {
		st := runner.Stats()
		f.Runner = &RunnerRecord{
			Workers:        runner.Workers(),
			JobsRun:        st.JobsRun,
			CacheHits:      st.CacheHits,
			StoreHits:      st.StoreHits,
			StoreWrites:    st.StoreWrites,
			StoreErrors:    st.StoreErrors,
			StoreCorrupt:   st.StoreCorrupt,
			IntervalRuns:   st.IntervalRuns,
			Errors:         st.Errors,
			SimWallSeconds: st.SimWall.Seconds(),
		}
	}
	return f
}

// RunnerRecords serializes every successfully memoized job of a runner —
// the "everything this process simulated" export cmd/experiments -json
// writes.
func RunnerRecords(r *Runner) []RunRecord {
	jobs := r.CompletedJobs()
	out := make([]RunRecord, 0, len(jobs))
	for _, jr := range jobs {
		out = append(out, NewRunRecord(jr.Job.Bench, jr.Job.Scheme, jr.Job.Opts, jr.Result))
	}
	return out
}

// WriteResults writes the document to path as indented JSON.
func WriteResults(path string, f *ResultsFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("sim: marshal results: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("sim: write results: %w", err)
	}
	return nil
}

// ReadResults reads and validates a -json document: it must parse and
// carry a known schema version (the CI round-trip check).
func ReadResults(path string) (*ResultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: read results: %w", err)
	}
	var f ResultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("sim: parse results %s: %w", path, err)
	}
	if f.SchemaVersion < 1 || f.SchemaVersion > ResultsSchemaVersion {
		return nil, fmt.Errorf("sim: results %s: schema version %d outside [1,%d]", path, f.SchemaVersion, ResultsSchemaVersion)
	}
	return &f, nil
}
