// Package serve implements the regsimd service plane: an HTTP front end
// that accepts sweep jobs (scheme × benchmark matrices), shards their
// points across the sim.Runner worker pool, coalesces identical in-flight
// and memoized points through the run layer's single-flight cache, and
// returns curated sim.ResultsFile documents — synchronously for small
// sweeps, via polled/long-polled job IDs for large ones.
//
// The service is production-shaped:
//
//   - Admission is bounded in units of sweep points (one point = one
//     scheme × benchmark simulation). When the admitted-but-unfinished
//     point count would exceed the configured bound, the request is shed
//     with 429 and a Retry-After hint instead of queueing unboundedly.
//   - Every request carries a deadline (client-chosen, capped) that is
//     propagated as a context into the runner, so a stuck sweep returns
//     promptly with 504 while the underlying simulations stay memoized
//     for the next requester.
//   - Drain stops admission (503), waits for every in-flight sweep, and
//     then closes the runner via Runner.Close — the SIGTERM path of
//     cmd/regsimd. Results of jobs that finished during the drain remain
//     fetchable.
//   - Metrics (queue depth, coalesce counters, per-sweep latency
//     histogram) register into the obs.Registry served on the expvar
//     endpoint, and the API mux mounts /debug/ (expvar + pprof) itself.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"regcache/internal/fleet"
	"regcache/internal/obs"
	"regcache/internal/pipeline"
	"regcache/internal/sim"
)

// Backend executes sweep points: RunTimed returns a point's result with
// its latency breakdown (the timing block and the point span's outcome).
// *sim.Runner satisfies it directly; tests substitute controllable fakes.
type Backend interface {
	RunTimed(ctx context.Context, bench string, s sim.Scheme, o sim.Options) (pipeline.Result, sim.PointTiming, error)
	Stats() sim.RunnerStats
	Close()
}

// maxBodyBytes caps a sweep or exploration request body.
const maxBodyBytes = 1 << 20

// Config sizes the service. Backend is required; zero values of the other
// fields select the defaults.
type Config struct {
	Backend Backend // executes the points; Drain closes it

	MaxQueuedPoints int           // admission bound on unfinished points; default 4096
	MaxSyncPoints   int           // larger sweeps are answered async (202 + job); default 64
	MaxJobs         int           // settled async jobs retained for polling; default 1024
	DefaultTimeout  time.Duration // per-request deadline when the client sets none; default 60s
	MaxTimeout      time.Duration // cap on client-chosen deadlines; default 10m
	RetryAfter      time.Duration // base Retry-After hint; scaled with queue depth, see retryAfterHint

	// Peers + SelfURL enable the fleet plane: client-facing sweeps are
	// scattered across Peers ∪ {SelfURL} by consistent-hashing each
	// point's store fingerprint; this node executes only the partitions it
	// owns and proxies the rest (internal/serve/fleet.go). SelfURL must be
	// the URL peers reach this node at — it selects in-process execution
	// over a loopback HTTP hop.
	Peers   []string
	SelfURL string

	// Store, when the backend runner uses a durable result store, lets
	// GET /v1/store/{key} serve this node's shard to fleet peers.
	Store *sim.ResultStore

	// FleetHedgeAfter overrides the fabric's straggler-deadline fallback
	// (used until the latency histogram has samples); default 2s.
	FleetHedgeAfter time.Duration

	// Flight receives every request's span tree and the error/panic/shed
	// event stream (GET /debug/flight). Nil selects the process-wide
	// recorder; tracing cannot be disabled — the rings are bounded, so
	// always-on costs a constant.
	Flight *obs.FlightRecorder

	// Logger is the structured logger for request/drain/error lines. Nil
	// selects obs.Logger() at call time (a discard until the binary calls
	// obs.SetLogger), so library use stays silent.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxQueuedPoints <= 0 {
		c.MaxQueuedPoints = 4096
	}
	if c.MaxSyncPoints <= 0 {
		c.MaxSyncPoints = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the regsimd service. Create with New; serve Handler().
type Server struct {
	cfg     Config
	backend Backend
	flight  *obs.FlightRecorder
	logger  *slog.Logger
	fleet   *fleet.Coordinator // nil without Config.Peers

	regMu sync.Mutex
	reg   *obs.Registry // registry /metrics renders (set by RegisterMetrics)

	mu       sync.Mutex
	queued   int // admitted, not yet finished points
	draining bool
	jobs     map[string]*job
	seq      int

	// wg carries one count per in-flight sweep (sync and async). Add runs
	// inside admit, under mu: Drain flips draining under the same lock, so
	// it can never observe a zero counter between a sweep's admission and
	// its Add (which would both violate the drain contract and race Add
	// against Wait).
	wg sync.WaitGroup

	sweepsAccepted   obs.Counter
	rejectedBusy     obs.Counter
	rejectedDrain    obs.Counter
	rejectedTooLarge obs.Counter
	pointsSubmitted  obs.Counter
	pointErrors      obs.Counter

	exploresAccepted  obs.Counter
	exploreCandidates obs.Counter
	exploreRungs      obs.Counter
	lastFrontierSize  atomic.Int64

	histMu         sync.Mutex
	sweepWall      *obs.HistogramVar // nil until RegisterMetrics
	exploreRungHit *obs.HistogramVar // per-rung percentage of points not re-simulated
}

// New builds a server over cfg.Backend, which Drain closes. A nil
// Backend is a caller bug and panics.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("serve: New needs a Config.Backend")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, backend: cfg.Backend, jobs: make(map[string]*job)}
	s.flight = cfg.Flight
	if s.flight == nil {
		s.flight = obs.DefaultFlight()
	}
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = obs.Logger()
	}
	// A runner backend reports its panics and store failures into the same
	// recorder the service serves, so /debug/flight is one coherent stream.
	if r, ok := s.backend.(*sim.Runner); ok {
		r.UseFlight(s.flight)
	}
	if len(cfg.Peers) > 0 && cfg.SelfURL != "" {
		s.fleet = fleet.New(fleet.Config{
			Endpoints:  cfg.Peers,
			Self:       cfg.SelfURL,
			Local:      s.leafExec,
			HedgeAfter: cfg.FleetHedgeAfter,
		})
	}
	return s
}

// Backend returns the point executor (for tests and metric wiring).
func (s *Server) Backend() Backend { return s.backend }

// QueuedPoints returns the number of admitted-but-unfinished points.
func (s *Server) QueuedPoints() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RegisterMetrics publishes the service counters, queue gauges, coalesce
// counters derived from the backend's run-layer stats, and a per-sweep
// latency histogram under prefix (e.g. "serve"). When the backend is a
// *sim.Runner its own metrics register under prefix+".runner".
func (s *Server) RegisterMetrics(reg *obs.Registry, prefix string) {
	s.regMu.Lock()
	s.reg = reg
	s.regMu.Unlock()
	reg.Func(prefix+".queued_points", func() any { return s.QueuedPoints() })
	reg.Func(prefix+".draining", func() any { return s.Draining() })
	reg.Func(prefix+".sweeps_accepted", func() any { return s.sweepsAccepted.Value() })
	reg.Func(prefix+".sweeps_rejected_busy", func() any { return s.rejectedBusy.Value() })
	reg.Func(prefix+".sweeps_rejected_draining", func() any { return s.rejectedDrain.Value() })
	reg.Func(prefix+".sweeps_rejected_too_large", func() any { return s.rejectedTooLarge.Value() })
	reg.Func(prefix+".points_submitted", func() any { return s.pointsSubmitted.Value() })
	reg.Func(prefix+".point_errors", func() any { return s.pointErrors.Value() })
	// The run layer's single-flight memo is the coalescing mechanism:
	// cache hits are exactly the points this process did not re-simulate.
	reg.Func(prefix+".coalesced_points", func() any { return s.backend.Stats().CacheHits })
	reg.Func(prefix+".points_run", func() any { return s.backend.Stats().JobsRun })
	reg.Gauge(prefix+".coalesce_hit_rate", func() float64 {
		st := s.backend.Stats()
		total := st.JobsRun + st.CacheHits
		if total == 0 {
			return 0
		}
		return float64(st.CacheHits) / float64(total)
	})
	reg.Func(prefix+".jobs", func() any { return s.jobCounts() })
	s.registerExploreMetrics(reg, prefix)
	s.histMu.Lock()
	if s.sweepWall == nil {
		s.sweepWall = reg.Histogram(prefix + ".sweep_wall_ms")
	}
	s.histMu.Unlock()
	if r, ok := s.backend.(*sim.Runner); ok {
		r.RegisterMetrics(reg, prefix+".runner")
	}
	s.registerFleetMetrics(reg, prefix)
}

func (s *Server) observeSweep(wall time.Duration) {
	s.histMu.Lock()
	h := s.sweepWall
	s.histMu.Unlock()
	if h != nil {
		h.Add(int(wall.Milliseconds()))
	}
}

// Handler returns the service mux: the /v1 API, /healthz, Prometheus
// text exposition at /metrics, the flight recorder at /debug/flight, and
// /debug/ (expvar + pprof, registered on the default mux by package
// obs). Every route is wrapped in the request-ID middleware, so every
// response — including sheds and parse failures — carries X-Request-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/explore", s.handleExplore)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	mux.HandleFunc("GET /v1/store/{key}", s.handleStoreGet)
	mux.HandleFunc("GET /v1/peers", s.handlePeers)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		obs.WritePrometheus(w, s.registry())
	})
	mux.Handle("GET /debug/flight", s.flight.Handler())
	mux.Handle("/debug/", http.DefaultServeMux)
	return s.withRequestID(mux)
}

// registry returns the registry /metrics renders: the one handed to
// RegisterMetrics, or the process default before that.
func (s *Server) registry() *obs.Registry {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.reg != nil {
		return s.reg
	}
	return obs.Default()
}

// admit reserves n points of queue budget and a sweep WaitGroup count, or
// reports why it cannot. Every admitted sweep must be balanced by exactly
// one release.
func (s *Server) admit(n int) (ok, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false, true
	}
	if s.queued+n > s.cfg.MaxQueuedPoints {
		return false, false
	}
	s.queued += n
	s.wg.Add(1)
	return true, false
}

func (s *Server) release(n int) {
	s.mu.Lock()
	s.queued -= n
	s.mu.Unlock()
	s.wg.Done()
}

// Drain stops admission (new sweeps get 503), waits for every in-flight
// sweep to finish — bounded by ctx — and closes the backend runner.
// Completed job results remain fetchable afterwards. Drain is what the
// SIGTERM handler of cmd/regsimd calls.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	queued := s.queued
	s.mu.Unlock()
	s.logger.InfoContext(ctx, "drain started", "queued_points", queued)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.backend.Close()
		s.logger.InfoContext(ctx, "drain complete",
			"elapsed_ms", float64(time.Since(start).Microseconds())/1e3)
		return nil
	case <-ctx.Done():
		s.logger.ErrorContext(ctx, "drain interrupted", "err", ctx.Err().Error())
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// SweepRequest is the POST /v1/sweep body; sim owns the one definition
// and its resolve step (sim.SweepRequest.Resolve).
type SweepRequest = sim.SweepRequest

// timeoutFor maps a client deadline_ms onto the configured default/cap.
func (s *Server) timeoutFor(deadlineMS int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if deadlineMS > 0 {
		timeout = time.Duration(deadlineMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFrom(r.Context())
	// Every sweep submission — even one shed at admission — gets a trace:
	// the span tree is the postmortem record of what the service decided.
	root := s.flight.StartTrace("sweep", reqID)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badRequest(w, root, err, fmt.Sprintf("bad sweep request: %v", err))
		return
	}
	sw, err := req.Resolve()
	if err != nil {
		badRequest(w, root, err, err.Error())
		return
	}
	points := sw.Points()
	root.SetInt("points", int64(points))

	// A leaf request is a sub-sweep dispatched by a peer gateway (or a
	// multi-endpoint client): it executes locally and synchronously, never
	// re-scattered.
	leaf := isLeaf(r)
	viaFleet := s.fleetEnabled() && !leaf
	s.admitAndRun(w, r, root, admission{
		kind:     "sweep",
		remedy:   "split the request",
		points:   points,
		viaFleet: viaFleet,
		async:    (req.Async || points > s.cfg.MaxSyncPoints) && !leaf,
		timeout:  s.timeoutFor(req.DeadlineMS),
		accepted: func() { s.sweepsAccepted.Add(1) },
		exec: func(ctx context.Context) (any, error) {
			return s.execSweep(ctx, sw, viaFleet, reqID)
		},
	})
}

// badRequest ends root with err and answers 400 with msg.
func badRequest(w http.ResponseWriter, root *obs.Span, err error, msg string) {
	root.SetError(err)
	root.End()
	httpError(w, http.StatusBadRequest, msg)
}

// admission is one decoded, sized request as admitAndRun sees it: the
// fields are what a sweep and an exploration differ in.
type admission struct {
	kind     string        // "sweep" or "explore": the job kind and the shed wording
	remedy   string        // how the client can shrink a request that can never fit (413)
	points   int           // simulations the request runs
	viaFleet bool          // scatter across the fleet instead of running on this node
	async    bool          // answer 202 with a job ID instead of the document
	timeout  time.Duration // deadline on exec
	accepted func()        // counts the admitted request
	exec     func(ctx context.Context) (any, error)
}

// admitAndRun is the service plane's one admission path. A request
// larger than the whole queue bound is refused with 413 (no Retry-After:
// it can never fit, so a retry is pointless); otherwise a draining server
// sheds it with 503 and a full queue with 429, both with the load-scaled
// Retry-After. An admitted request runs exec, in a background job
// answered 202 when async, else under the request's context. It ends
// root, or hands it to the job, on every path.
func (s *Server) admitAndRun(w http.ResponseWriter, r *http.Request, root *obs.Span, a admission) {
	reqID := RequestIDFrom(r.Context())
	// A fleet gateway reserves no local points itself (leafExec admits
	// this node's share per partition) but still holds a WaitGroup count
	// so Drain waits for the gather; its bound is fleet-wide.
	admitPoints := a.points
	capacity := s.cfg.MaxQueuedPoints
	if a.viaFleet {
		admitPoints = 0
		capacity = s.cfg.MaxQueuedPoints * len(s.fleet.Endpoints())
		root.SetBool("fleet", true)
	}

	adm := root.StartChild("admission")
	shed := func(rejected *obs.Counter, outcome string, status int, msg, why string) {
		rejected.Add(1)
		adm.SetString("outcome", outcome)
		adm.End()
		root.End()
		s.flight.Event("shed", reqID, "%s of %d points %s", a.kind, a.points, why)
		if status != http.StatusRequestEntityTooLarge {
			setRetryAfter(w, s.retryAfterHint())
		}
		httpError(w, status, msg)
	}
	if a.points > capacity {
		shed(&s.rejectedTooLarge, "too-large", http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s of %d points exceeds the server's queue bound %d; %s", a.kind, a.points, capacity, a.remedy),
			fmt.Sprintf("exceeds queue bound %d", capacity))
		return
	}
	ok, draining := s.admit(admitPoints)
	if draining {
		shed(&s.rejectedDrain, "shed-drain", http.StatusServiceUnavailable, "server is draining", "rejected: draining")
		return
	}
	if !ok {
		queued := s.QueuedPoints()
		shed(&s.rejectedBusy, "shed-busy", http.StatusTooManyRequests,
			fmt.Sprintf("queue full: %d points queued, %d requested, bound %d", queued, a.points, s.cfg.MaxQueuedPoints),
			fmt.Sprintf("rejected: queue full (%d queued, bound %d)", queued, s.cfg.MaxQueuedPoints))
		return
	}
	adm.SetString("outcome", "admitted")
	adm.End()
	a.accepted()
	if !a.viaFleet {
		s.pointsSubmitted.Add(uint64(a.points))
	}

	if a.async {
		j := s.newJob(a.kind, a.points)
		root.SetString("job", j.id)
		root.SetBool("async", true)
		go func() {
			defer s.release(admitPoints)
			start := time.Now()
			// The async trace outlives the HTTP exchange: the root span
			// stays open until the job settles, then the tree is recorded.
			ctx, cancel := context.WithTimeout(context.Background(), a.timeout)
			defer cancel()
			jsp := root.StartChild("job")
			doc, err := a.exec(obs.ContextWithSpan(ctx, jsp))
			jsp.SetError(err)
			jsp.End()
			root.SetError(err)
			root.End()
			s.observeSweep(time.Since(start))
			s.finishJob(j, doc, err)
			s.logger.InfoContext(ctx, "async "+a.kind+" settled",
				"request_id", reqID, "job", j.id, "points", a.points,
				"elapsed_ms", float64(time.Since(start).Microseconds())/1e3,
				"failed", err != nil)
		}()
		writeJSONStatus(w, http.StatusAccepted, s.jobStatus(j))
		return
	}

	defer s.release(admitPoints)
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), a.timeout)
	defer cancel()
	doc, err := a.exec(obs.ContextWithSpan(ctx, root))
	s.observeSweep(time.Since(start))
	root.SetError(err)
	root.End()
	if err != nil {
		s.flight.Event("error", reqID, "%s failed: %v", a.kind, err)
		httpError(w, errStatus(err), err.Error())
		return
	}
	writeJSON(w, doc)
}

// runSweep executes every point of the sweep concurrently (the backend
// pool bounds actual parallelism; identical and already-memoized points
// coalesce in the run layer) and assembles a deterministic results file:
// identical requests produce byte-identical documents, so response bodies
// are cache- and diff-friendly.
func (s *Server) runSweep(ctx context.Context, sw sim.Sweep) (*sim.ResultsFile, error) {
	n := sw.Points()
	sp := obs.SpanFromContext(ctx)
	results := make([]pipeline.Result, n)
	timings := make([]sim.PointTiming, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	idx := 0
	for _, sc := range sw.Schemes {
		for _, b := range sw.Benches {
			i, sc, b := idx, sc, b
			idx++
			wg.Add(1)
			go func() {
				defer wg.Done()
				psp := sp.StartChild("point")
				psp.SetString("scheme", sc.Name)
				psp.SetString("bench", b)
				pctx := obs.ContextWithSpan(ctx, psp)
				results[i], timings[i], errs[i] = s.backend.RunTimed(pctx, b, sc, sw.Opts)
				psp.SetString("outcome", timings[i].Outcome)
				psp.SetError(errs[i])
				psp.End()
			}()
		}
	}
	wg.Wait()

	runs := make([]sim.RunRecord, 0, n)
	var failed []error
	idx = 0
	for _, sc := range sw.Schemes {
		for _, b := range sw.Benches {
			if err := errs[idx]; err != nil {
				s.pointErrors.Add(1)
				failed = append(failed, fmt.Errorf("%s/%s: %w", sc.Name, b, err))
			} else {
				rec := sim.NewRunRecord(b, sc, sw.Opts, results[idx])
				if sw.Timings {
					rec.Timing = sim.NewTimingRecord(timings[idx])
				}
				runs = append(runs, rec)
			}
			idx++
		}
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	// CreatedAt and WallSeconds are deliberately zero: the body must be a
	// pure function of the request for coalesced responses to be
	// byte-identical.
	return &sim.ResultsFile{
		SchemaVersion: sim.ResultsSchemaVersion,
		Generator:     "regsimd",
		Runs:          runs,
	}, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, map[string]any{"status": "ok", "queued_points": s.QueuedPoints()})
}

// errStatus maps sweep errors onto HTTP statuses: deadline overruns are
// the caller's budget expiring (504), a closed runner means shutdown
// (503), a partition no fleet node could take is an upstream failure
// (502), anything else is a simulation failure (500).
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	case errors.Is(err, sim.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, fleet.ErrUnavailable):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
}
