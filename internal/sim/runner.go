package sim

// This file implements the simulation-run layer every evaluation in the
// repo executes through: a Runner is a memoizing result cache keyed by the
// full (scheme, benchmark, options) triple with single-flight
// deduplication, in front of a bounded worker pool that schedules
// scheme×benchmark jobs across all the experiments given the same runner
// instead of per-suite goroutine bursts. Baselines that many figures share
// (e.g. the 3-cycle monolithic file) therefore simulate once per runner;
// every later request is a cache hit. There is no process-wide runner:
// each command, server and test builds the one it passes around.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"regcache/internal/core"
	"regcache/internal/obs"
	"regcache/internal/pipeline"
)

// ErrClosed is returned for submissions to (or drained from) a closed
// runner.
var ErrClosed = errors.New("sim: runner closed")

// Job identifies one memoizable simulation. Scheme and Options are plain
// value structs (the scheme name plus its full configuration, the
// benchmark, the instruction budget, and the tracking flags), so the Job
// itself is the memoization key — two jobs collide exactly when they would
// produce identical Results.
type Job struct {
	Scheme Scheme
	Bench  string
	Opts   Options
}

// Key renders the job as a stable human-readable cache key (for metrics
// and debugging; the map key is the Job value itself).
func (j Job) Key() string {
	return fmt.Sprintf("%s|%+v|%s|n=%d,k=%d,w=%d,lt=%v,lv=%v,t=%d,il=%d",
		j.Scheme.Name, j.Scheme, j.Bench, j.Opts.Insts, j.Opts.Intervals, j.Opts.WarmupInsts,
		j.Opts.TrackLifetimes, j.Opts.TrackLive, j.Opts.Threads, j.Opts.Interleave)
}

// RunnerStats counts what the run layer did. Snapshots are values; use Sub
// to get the delta attributable to one experiment.
type RunnerStats struct {
	JobsRun      uint64        // simulations actually executed by the pool
	CacheHits    uint64        // requests served from the memo (incl. single-flight joins)
	StoreHits    uint64        // memo misses served from the durable result store
	StoreWrites  uint64        // completed results appended to the store
	StoreErrors  uint64        // store appends that failed (durability lost for that result)
	StoreCorrupt uint64        // store lookups that hit a corrupt/undecodable entry
	IntervalRuns uint64        // jobs executed through the interval-parallel path
	Errors       uint64        // jobs that finished with an error
	SimWall      time.Duration // cumulative wall time spent inside simulations
}

// Sub returns the counter delta s - prev.
func (s RunnerStats) Sub(prev RunnerStats) RunnerStats {
	return RunnerStats{
		JobsRun:      s.JobsRun - prev.JobsRun,
		CacheHits:    s.CacheHits - prev.CacheHits,
		StoreHits:    s.StoreHits - prev.StoreHits,
		StoreWrites:  s.StoreWrites - prev.StoreWrites,
		StoreErrors:  s.StoreErrors - prev.StoreErrors,
		StoreCorrupt: s.StoreCorrupt - prev.StoreCorrupt,
		IntervalRuns: s.IntervalRuns - prev.IntervalRuns,
		Errors:       s.Errors - prev.Errors,
		SimWall:      s.SimWall - prev.SimWall,
	}
}

func (s RunnerStats) String() string {
	out := fmt.Sprintf("%d jobs run, %d cache hits, %.1fs sim wall", s.JobsRun, s.CacheHits, s.SimWall.Seconds())
	if s.StoreHits != 0 || s.StoreWrites != 0 {
		out += fmt.Sprintf(", %d store hits, %d store writes", s.StoreHits, s.StoreWrites)
	}
	if s.StoreErrors != 0 {
		out += fmt.Sprintf(", %d store errors", s.StoreErrors)
	}
	return out
}

// PointTiming breaks down where one point's latency went — the per-job
// timing block of the v2 results schema. For a fresh submission the
// fields describe the actual execution; a requester that joined an
// in-flight or memoized entry gets Outcome "coalesced" with its own
// wait, since the execution cost was paid (and is reported) elsewhere.
type PointTiming struct {
	Outcome       string  // "simulated", "store", "coalesced"
	QueueWaitMS   float64 // submission -> worker pickup (or requester wait when coalesced)
	StoreLookupMS float64 // durable-store probe on the memo miss path
	SimMS         float64 // wall time inside the simulation
	StitchMS      float64 // interval-merge share of SimMS (interval runs)
}

// memoEntry is one single-flight memoization slot: the first requester
// creates it and queues the job; everyone waits on done.
type memoEntry struct {
	done    chan struct{}
	res     pipeline.Result
	err     error
	timing  PointTiming // written by the executing worker before done closes
	waiters int         // requesters that have not left (under Runner.mu)
}

// queuedJob is one FIFO item: a job no worker has taken yet. It, not the
// memo entry (which lives as long as the runner), carries the first
// submitter's span and submit time.
type queuedJob struct {
	j         Job
	e         *memoEntry
	sp        *obs.Span
	submitted time.Time
}

// Runner executes simulation jobs on a bounded worker pool and memoizes
// their results. The zero value is not usable; call NewRunner. Jobs are
// leaf computations — they must not submit further jobs, which keeps the
// fixed-size pool deadlock-free. Close shuts the pool down; a closed
// runner fails new submissions with ErrClosed but still serves memoized
// results.
type Runner struct {
	workers   int
	workloads *WorkloadCache // shared pre-decoded programs + oracle tables
	wg        sync.WaitGroup // the worker goroutines

	mu      sync.Mutex
	work    *sync.Cond  // signalled when fifo gains a job or the runner closes
	fifo    []queuedJob // jobs waiting for a worker, oldest first
	memo    map[Job]*memoEntry
	stats   RunnerStats
	open    int // memo entries not yet settled (queued or executing)
	closed  bool
	started bool // worker pool launched (UseStore must precede this)

	// Durable result store (nil unless UseStore attached one): the L2 of
	// the cache hierarchy. It is fixed before the workers start, so they
	// read it without the lock.
	store          *ResultStore
	storeErrLogged bool // first store-append failure logged

	jobWall      *obs.HistogramVar // per-job sim wall time, milliseconds (nil until RegisterMetrics)
	queueWait    *obs.HistogramVar // per-job queue wait, milliseconds
	intervalSkew *obs.HistogramVar // per-interval-run cycle skew, percent (nil until RegisterMetrics)
	intervalWarm *obs.HistogramVar // per-interval-run warm-up overhead, percent of cycles

	// aggMissBy accumulates the register-cache miss-class split over every
	// simulated job (indexed by core.MissKind), so the per-class breakdown
	// the paper's Figure 8 is built from is a first-class scrape target
	// instead of being buried in individual RunRecords. Replayed work
	// (memo/store hits) does not re-count.
	aggMissBy [core.NumMissKinds]uint64

	// flight receives panic/error events from job execution (nil = off).
	flight *obs.FlightRecorder
}

// NewRunner builds a runner with the given pool size; workers <= 0 selects
// runtime.NumCPU(). The runner shares the process-wide workload cache.
func NewRunner(workers int) *Runner {
	return NewRunnerWith(workers, DefaultWorkloads())
}

// NewRunnerWith builds a runner whose jobs draw pre-decoded programs and
// oracle tables from the given workload cache (nil selects the process-wide
// cache). Tests use a private cache to observe sharing in isolation.
func NewRunnerWith(workers int, wc *WorkloadCache) *Runner {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if wc == nil {
		wc = DefaultWorkloads()
	}
	r := &Runner{
		workers:   workers,
		workloads: wc,
		memo:      make(map[Job]*memoEntry),
	}
	r.work = sync.NewCond(&r.mu)
	return r
}

// Workloads returns the workload cache this runner's jobs share.
func (r *Runner) Workloads() *WorkloadCache { return r.workloads }

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Stats returns a snapshot of the runner counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Open returns the number of submitted jobs not yet settled (queued or
// executing) — the progress heartbeat's remaining-work estimate.
func (r *Runner) Open() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open
}

// UseStore attaches a durable result store as the L2 of the cache
// hierarchy: a memo miss consults the store before simulating (a hit
// promotes into the memo via the normal single-flight entry), and the
// worker appends every completed simulation before it settles the job, so
// a requester that has a result also has it on disk. It must be called
// before the first submission starts the worker pool.
func (r *Runner) UseStore(rs *ResultStore) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.started {
		return errors.New("sim: UseStore called after the runner started")
	}
	r.store = rs
	return nil
}

// UseFlight attaches a flight recorder: job panics and store-append
// failures become recorded events (GET /debug/flight). Unlike UseStore
// it may be attached or swapped at any time; nil detaches.
func (r *Runner) UseFlight(f *obs.FlightRecorder) {
	r.mu.Lock()
	r.flight = f
	r.mu.Unlock()
}

func (r *Runner) flightRecorder() *obs.FlightRecorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flight
}

// storePut appends a completed result to the store (callers check that
// one is attached).
func (r *Runner) storePut(j Job, res pipeline.Result) {
	if err := r.store.Put(j, res); err != nil {
		// A failed append loses durability for this result, not
		// correctness (the memo still has it); count it so the loss is
		// visible, and log the first one so the cause is too.
		r.mu.Lock()
		r.stats.StoreErrors++
		logIt := !r.storeErrLogged
		r.storeErrLogged = true
		fl := r.flight
		r.mu.Unlock()
		fl.Event("store-error", "", "store append failed (job %s): %v", j.Key(), err)
		if logIt {
			obs.Logger().Error("store append failed", "job", j.Key(), "err", err.Error())
		}
		return
	}
	r.mu.Lock()
	r.stats.StoreWrites++
	r.mu.Unlock()
}

// storeLookup consults the durable store on a memo miss.
func (r *Runner) storeLookup(j Job) (pipeline.Result, bool) {
	if r.store == nil {
		return pipeline.Result{}, false
	}
	res, st := r.store.Get(j)
	switch st {
	case StoreGetHit:
		return res, true
	case StoreGetCorrupt:
		r.mu.Lock()
		r.stats.StoreCorrupt++
		r.mu.Unlock()
	}
	return pipeline.Result{}, false
}

// RegisterMetrics publishes the runner's counters, an open-jobs gauge, and
// a per-job wall-time histogram into a metrics registry under prefix
// (e.g. "runner").
func (r *Runner) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Func(prefix+".workers", func() any { return r.workers })
	reg.Func(prefix+".jobs_run", func() any { return r.Stats().JobsRun })
	reg.Func(prefix+".cache_hits", func() any { return r.Stats().CacheHits })
	reg.Func(prefix+".errors", func() any { return r.Stats().Errors })
	reg.Gauge(prefix+".sim_wall_seconds", func() float64 { return r.Stats().SimWall.Seconds() })
	reg.Func(prefix+".open_jobs", func() any { return r.Open() })
	reg.Func(prefix+".store_hits", func() any { return r.Stats().StoreHits })
	reg.Func(prefix+".store_writes", func() any { return r.Stats().StoreWrites })
	reg.Func(prefix+".store_errors", func() any { return r.Stats().StoreErrors })
	reg.Func(prefix+".store_corrupt", func() any { return r.Stats().StoreCorrupt })
	reg.Func(prefix+".interval_runs", func() any { return r.Stats().IntervalRuns })
	reg.Gauge(prefix+".store_hit_rate", func() float64 {
		st := r.Stats()
		if total := st.JobsRun + st.StoreHits; total > 0 {
			return float64(st.StoreHits) / float64(total)
		}
		return 0
	})
	reg.Func(prefix+".store", func() any {
		r.mu.Lock()
		rs := r.store
		r.mu.Unlock()
		if rs == nil {
			return nil
		}
		return rs.Store().Stats()
	})
	reg.CounterFunc(prefix+".miss_filtered", func() uint64 { return r.MissByClass()[core.MissFiltered] })
	reg.CounterFunc(prefix+".miss_capacity", func() uint64 { return r.MissByClass()[core.MissCapacity] })
	reg.CounterFunc(prefix+".miss_conflict", func() uint64 { return r.MissByClass()[core.MissConflict] })
	r.mu.Lock()
	if r.jobWall == nil {
		r.jobWall = reg.Histogram(prefix + ".job_wall_ms")
		r.queueWait = reg.Histogram(prefix + ".queue_wait_ms")
		r.intervalSkew = reg.Histogram(prefix + ".interval_skew_pct")
		r.intervalWarm = reg.Histogram(prefix + ".interval_warmup_frac_pct")
	}
	r.mu.Unlock()
}

// MissByClass returns the cumulative register-cache miss-class split over
// every simulation this runner executed (replayed memo/store hits do not
// re-count), indexed by core.MissKind.
func (r *Runner) MissByClass() [core.NumMissKinds]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aggMissBy
}

// submit returns the memo entry for j, appending the job to the FIFO if
// this call is the first to request it (single flight); fresh reports
// whether this call created the entry (false = joined an in-flight or
// memoized one). Submission never blocks, and the caller counts as a
// waiter on the entry until it leaves (see wait). The first submission
// starts the workers.
//
// The first submitter's request span (carried in ctx) traces the
// execution: the worker opens store-lookup / simulate / store-append
// children under it. Joiners contribute no spans — their cost is a wait,
// reported per requester as Outcome "coalesced" by RunTimed. A point
// failing ValidatePoint is refused before it reaches the memo.
func (r *Runner) submit(ctx context.Context, j Job) (e *memoEntry, fresh bool, err error) {
	if err := ValidatePoint(j.Scheme, j.Opts); err != nil {
		return nil, false, err
	}
	j.Opts = j.Opts.withDefaults()
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.memo[j]; ok {
		r.stats.CacheHits++
		e.waiters++
		return e, false, nil
	}
	if r.closed {
		return nil, false, ErrClosed
	}
	if !r.started {
		r.started = true
		r.wg.Add(r.workers)
		for i := 0; i < r.workers; i++ {
			go r.worker()
		}
	}
	e = &memoEntry{done: make(chan struct{}), waiters: 1}
	r.memo[j] = e
	r.open++
	r.fifo = append(r.fifo, queuedJob{j: j, e: e, sp: obs.SpanFromContext(ctx), submitted: time.Now()})
	r.work.Signal()
	return e, true, nil
}

// worker executes FIFO jobs oldest-first until Close.
func (r *Runner) worker() {
	defer r.wg.Done()
	r.mu.Lock()
	for {
		for len(r.fifo) == 0 && !r.closed {
			r.work.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		q := r.fifo[0]
		r.fifo[0] = queuedJob{} // the backing array must not pin the span
		r.fifo = r.fifo[1:]
		r.mu.Unlock()
		r.execute(q)
		r.mu.Lock()
	}
}

// execute runs one job a worker took: the durable-store lookup, else the
// simulation and its store append. The entry settles last, after the
// append.
func (r *Runner) execute(q queuedJob) {
	e, j := q.e, q.j
	queueWait := time.Since(q.submitted)
	if qh := r.queueWaitHist(); qh != nil {
		qh.Add(int(queueWait.Milliseconds()))
	}
	e.timing.QueueWaitMS = durMS(queueWait)
	// L2 lookup: a durable-store hit settles the entry without simulating
	// (and without touching JobsRun/SimWall — the counters distinguish
	// real work from replayed work).
	lsp := q.sp.StartChild("store-lookup")
	lookStart := time.Now()
	res, ok := r.storeLookup(j)
	e.timing.StoreLookupMS = durMS(time.Since(lookStart))
	lsp.SetBool("hit", ok)
	lsp.End()
	if ok {
		e.res = res
		e.timing.Outcome = "store"
		r.mu.Lock()
		r.stats.StoreHits++
		r.open--
		r.mu.Unlock()
		close(e.done)
		return
	}
	ssp := q.sp.StartChild("simulate")
	ssp.SetString("bench", j.Bench)
	ssp.SetString("scheme", j.Scheme.Name)
	start := time.Now()
	var stitch time.Duration
	e.res, stitch, e.err = r.runJob(j, ssp)
	wall := time.Since(start)
	ssp.SetError(e.err)
	ssp.End()
	e.timing.Outcome = "simulated"
	e.timing.SimMS = durMS(wall)
	e.timing.StitchMS = durMS(stitch)
	if e.err == nil && r.store != nil {
		asp := q.sp.StartChild("store-append")
		r.storePut(j, e.res)
		asp.End()
	}
	r.mu.Lock()
	r.stats.JobsRun++
	r.stats.SimWall += wall
	if e.err != nil {
		r.stats.Errors++
	}
	if e.err == nil && e.res.Intervals != nil {
		r.stats.IntervalRuns++
	}
	if e.err == nil {
		for k, n := range e.res.Cache.MissBy {
			r.aggMissBy[k] += n
		}
	}
	r.open--
	wallHist := r.jobWall
	skewHist, warmHist := r.intervalSkew, r.intervalWarm
	r.mu.Unlock()
	if wallHist != nil {
		wallHist.Add(int(wall.Milliseconds()))
	}
	if iv := e.res.Intervals; e.err == nil && iv != nil {
		if skewHist != nil {
			skewHist.Add(int(100 * iv.Skew()))
		}
		if warmHist != nil {
			warmHist.Add(int(100 * iv.WarmupFrac()))
		}
	}
	close(e.done)
}

func (r *Runner) queueWaitHist() *obs.HistogramVar {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queueWait
}

// durMS renders a duration as fractional milliseconds (timing blocks are
// human-facing; sub-ms store probes should not flatten to zero).
func durMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// runJob executes one simulation, converting a panic into an ordinary job
// error. Workers run on bare goroutines with no recover above them, so
// without this a single pathological configuration (e.g. one that slipped
// past Scheme.Validate) would crash the whole process — fatal for the
// daemon, whose jobs originate from remote clients. A panic additionally
// lands in the flight recorder so GET /debug/flight shows it after the
// fact.
func (r *Runner) runJob(j Job, sp *obs.Span) (res pipeline.Result, stitch time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, stitch, err = pipeline.Result{}, 0, fmt.Errorf("sim: job %s panicked: %v", j.Key(), p)
			r.flightRecorder().Event("panic", sp.RequestID(), "job %s panicked: %v", j.Key(), p)
			obs.Logger().Error("job panicked", "job", j.Key(), "panic", fmt.Sprint(p))
		}
	}()
	var stitchNS int64
	res, stitchNS, err = executeTraced(r.workloads, j.Bench, j.Scheme, j.Opts, sp)
	return res, time.Duration(stitchNS), err
}

// Close shuts the worker pool down: every job still in the FIFO settles
// with ErrClosed, workers exit after their in-flight job (its store append
// included), and subsequent submissions fail fast. Memoized results remain
// readable. Close is idempotent and safe to call concurrently with
// submissions.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	for _, q := range r.fifo {
		delete(r.memo, q.j)
		q.e.err = ErrClosed
		close(q.e.done)
	}
	r.open -= len(r.fifo)
	r.fifo = nil
	r.work.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// wait blocks until the entry settles or ctx ends. A requester whose
// context ends leaves the entry. When the last waiter leaves before a
// worker takes the job, the job leaves the FIFO and the memo and settles
// with that requester's context error: it never runs, and a later request
// starts it afresh. A job a worker has taken runs on and stays memoized,
// so a joiner is never failed by another requester's context.
func (r *Runner) wait(ctx context.Context, e *memoEntry) (pipeline.Result, error) {
	select {
	case <-e.done:
		return e.res, e.err
	case <-ctx.Done():
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e.waiters--
	if e.waiters == 0 {
		if i := slices.IndexFunc(r.fifo, func(q queuedJob) bool { return q.e == e }); i >= 0 {
			delete(r.memo, r.fifo[i].j)
			r.fifo = slices.Delete(r.fifo, i, i+1)
			r.open--
			e.err = ctx.Err()
			close(e.done)
		}
	}
	return pipeline.Result{}, ctx.Err()
}

// Run simulates one benchmark under one scheme through the memoizing pool:
// repeated requests for the same (scheme, benchmark, options) triple
// execute once and share the result. The context bounds the wait: a
// requester whose context ends leaves (see wait). It is RunTimed without
// the timing.
func (r *Runner) Run(ctx context.Context, bench string, s Scheme, o Options) (pipeline.Result, error) {
	res, _, err := r.RunTimed(ctx, bench, s, o)
	return res, err
}

// RunTimed is Run plus a per-request timing breakdown. A fresh submission
// reports where the execution's latency went (queue wait, store lookup,
// simulate, stitch); a requester that joined an in-flight or memoized
// entry gets Outcome "coalesced" with only its own wait, since the
// execution cost is attributed to the first submitter.
func (r *Runner) RunTimed(ctx context.Context, bench string, s Scheme, o Options) (pipeline.Result, PointTiming, error) {
	submitTime := time.Now()
	e, fresh, err := r.submit(ctx, Job{Scheme: s, Bench: bench, Opts: o})
	if err != nil {
		return pipeline.Result{}, PointTiming{}, err
	}
	res, err := r.wait(ctx, e)
	if err != nil {
		return pipeline.Result{}, PointTiming{}, err
	}
	if fresh {
		return res, e.timing, nil // timing written before done closed (happens-before via the channel)
	}
	return res, PointTiming{
		Outcome:     "coalesced",
		QueueWaitMS: durMS(time.Since(submitTime)),
	}, nil
}

// Prefetch queues every scheme×benchmark pair without waiting, so the
// pool can overlap simulations that a caller will collect serially later.
// Already-memoized pairs are no-ops. A prefetch never leaves, so its jobs
// always run.
func (r *Runner) Prefetch(benches []string, schemes []Scheme, o Options) {
	for _, s := range schemes {
		for _, b := range benches {
			r.submit(context.Background(), Job{Scheme: s, Bench: b, Opts: o}) //nolint:errcheck,dogsled // best-effort warmup
		}
	}
}

// JobResult pairs a completed job with its result (for machine-readable
// results export).
type JobResult struct {
	Job    Job
	Result pipeline.Result
}

// CompletedJobs returns every successfully memoized (job, result) pair in
// deterministic (key-sorted) order: the substrate for -json results files
// that record everything a process simulated.
func (r *Runner) CompletedJobs() []JobResult {
	r.mu.Lock()
	entries := make(map[Job]*memoEntry, len(r.memo))
	for j, e := range r.memo {
		entries[j] = e
	}
	r.mu.Unlock()
	out := make([]JobResult, 0, len(entries))
	for j, e := range entries {
		select {
		case <-e.done:
			if e.err == nil {
				out = append(out, JobResult{Job: j, Result: e.res})
			}
		default: // still in flight
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Job.Key() < out[k].Job.Key() })
	return out
}
