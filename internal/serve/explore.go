package serve

// POST /v1/explore: the design-space exploration job type. The handler
// validates and sizes the search up front (400 for malformed spaces, 413
// for spaces or schedules that can never be admitted), then runs it
// through the same admission, async-job, and drain machinery as sweeps.
// Every rung of the search is executed as one internal sweep via
// execSweep, so a fleet gateway scatters rung points across the ring and
// a single node runs them on its own pool — and either way memoization,
// the durable store, and coalescing keep repeated explorations from
// re-simulating anything.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"regcache/internal/explore"
	"regcache/internal/obs"
	"regcache/internal/sim"
)

// ExploreRequest is the POST /v1/explore body: the search spec plus the
// service envelope (benchmarks, async, deadline).
type ExploreRequest struct {
	explore.Spec
	Benches    []string `json:"benches"` // benchmark names, or ["all"]
	Async      bool     `json:"async,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFrom(r.Context())
	root := s.flight.StartTrace("explore", reqID)
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req ExploreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		root.SetError(err)
		root.End()
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad explore request: %v", err))
		return
	}
	benches, err := sim.ResolveBenches(req.Benches)
	if err != nil {
		root.SetError(err)
		root.End()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Spec validation precedes admission: malformed ranges are 400s, a
	// space over the candidate bound is a permanent 413 (never
	// admissible here, retrying is pointless).
	spec := req.Spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		root.SetError(err)
		root.End()
		if errors.Is(err, explore.ErrSpaceTooLarge) {
			s.rejectedTooLarge.Add(1)
			s.flight.Event("shed", reqID, "explore rejected: %v", err)
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	cands, _, err := spec.Candidates()
	if err != nil {
		root.SetError(err)
		root.End()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	plan := spec.Plan(len(cands))
	evals := explore.TotalEvals(plan, len(benches))
	root.SetInt("candidates", int64(len(cands)))
	root.SetInt("rungs", int64(len(plan)))
	root.SetInt("points", int64(evals))

	// Same fleet split as sweeps: a gateway reserves no local points (the
	// rung sub-sweeps admit on their owners), a single node accounts for
	// the whole schedule. Explorations are always client-facing — leaf
	// requests are sweeps by construction.
	viaFleet := s.fleetEnabled()
	admitPoints := evals
	capacity := s.cfg.MaxQueuedPoints
	if viaFleet {
		admitPoints = 0
		capacity = s.cfg.MaxQueuedPoints * len(s.fleet.Endpoints())
		root.SetBool("fleet", true)
	}

	adm := root.StartChild("admission")
	if evals > capacity {
		s.rejectedTooLarge.Add(1)
		adm.SetString("outcome", "too-large")
		adm.End()
		root.End()
		s.flight.Event("shed", reqID, "explore of %d evaluations exceeds queue bound %d", evals, capacity)
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("explore schedule of %d evaluations exceeds the server's queue bound %d; shrink the space or budgets",
				evals, capacity))
		return
	}
	ok, draining := s.admit(admitPoints)
	if !ok {
		if draining {
			s.rejectedDrain.Add(1)
			adm.SetString("outcome", "shed-drain")
			adm.End()
			root.End()
			s.flight.Event("shed", reqID, "explore of %d evaluations rejected: draining", evals)
			setRetryAfter(w, s.retryAfterHint())
			httpError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.rejectedBusy.Add(1)
		adm.SetString("outcome", "shed-busy")
		adm.End()
		root.End()
		s.flight.Event("shed", reqID, "explore of %d evaluations rejected: queue full (%d queued, bound %d)",
			evals, s.QueuedPoints(), s.cfg.MaxQueuedPoints)
		setRetryAfter(w, s.retryAfterHint())
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("queue full: %d points queued, %d requested, bound %d",
				s.QueuedPoints(), evals, s.cfg.MaxQueuedPoints))
		return
	}
	adm.SetString("outcome", "admitted")
	adm.End()
	s.exploresAccepted.Add(1)
	s.exploreCandidates.Add(uint64(len(cands)))
	if !viaFleet {
		s.pointsSubmitted.Add(uint64(evals))
	}
	timeout := s.timeoutFor(req.DeadlineMS)

	if req.Async || evals > s.cfg.MaxSyncPoints {
		j := s.newJob("explore", evals)
		root.SetString("job", j.id)
		root.SetBool("async", true)
		go func() {
			defer s.release(admitPoints)
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			jsp := root.StartChild("job")
			res, err := s.execExplore(obs.ContextWithSpan(ctx, jsp), spec, benches, viaFleet, reqID)
			jsp.SetError(err)
			jsp.End()
			root.SetError(err)
			root.End()
			s.observeSweep(time.Since(start))
			s.finishJob(j, res, err)
			s.logger.InfoContext(ctx, "async explore settled",
				"request_id", reqID, "job", j.id, "evals", evals,
				"elapsed_ms", float64(time.Since(start).Microseconds())/1e3,
				"failed", err != nil)
		}()
		writeJSONStatus(w, http.StatusAccepted, s.jobStatus(j))
		return
	}

	defer s.release(admitPoints)
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	res, err := s.execExplore(obs.ContextWithSpan(ctx, root), spec, benches, viaFleet, reqID)
	s.observeSweep(time.Since(start))
	root.SetError(err)
	root.End()
	if err != nil {
		s.flight.Event("error", reqID, "explore failed: %v", err)
		httpError(w, errStatus(err), err.Error())
		return
	}
	writeJSON(w, res)
}

// execExplore runs the search engine with rung evaluations routed through
// execSweep (local pool or fleet scatter) and updates the explore
// metrics. The returned document is a pure function of the request.
func (s *Server) execExplore(ctx context.Context, spec explore.Spec, benches []string, viaFleet bool, reqID string) (*explore.Result, error) {
	res, err := explore.Run(ctx, explore.Config{
		Spec:    spec,
		Benches: benches,
		Span:    obs.SpanFromContext(ctx),
		Eval:    s.exploreEvaluator(benches, viaFleet, reqID),
	})
	if err != nil {
		return nil, err
	}
	res.Generator = "regsimd"
	s.exploreRungs.Add(uint64(len(res.Rungs)))
	s.lastFrontierSize.Store(int64(len(res.Frontier)))
	return res, nil
}

// exploreEvaluator adapts execSweep into the engine's Evaluator: one rung
// becomes one internal sweep over (survivors × benches) at the rung's
// budget. Sweep options are uniform per sweep while a rung may mix thread
// counts (a Threads-axis search), so candidates are grouped by count and
// run as one sub-sweep per group, in ascending-count order; the engine
// scores runs by scheme name, so concatenation order carries no meaning.
// The before/after runner-stats delta feeds the per-rung store-hit-rate
// histogram — an observation about this process, so it goes to metrics,
// never into the result document.
func (s *Server) exploreEvaluator(benches []string, viaFleet bool, reqID string) explore.Evaluator {
	return func(ctx context.Context, cands []explore.Candidate, insts uint64) (*sim.ResultsFile, error) {
		groups := make(map[int][]sim.Scheme)
		var counts []int
		for _, c := range cands {
			if _, ok := groups[c.Threads]; !ok {
				counts = append(counts, c.Threads)
			}
			groups[c.Threads] = append(groups[c.Threads], c.Scheme)
		}
		sort.Ints(counts)
		before := s.backend.Stats()
		out := &sim.ResultsFile{SchemaVersion: sim.ResultsSchemaVersion}
		points := 0
		for _, tc := range counts {
			sw := sim.Sweep{
				Schemes: groups[tc],
				Benches: benches,
				Opts:    sim.Options{Insts: insts, Threads: tc},
			}
			file, err := s.execSweep(ctx, sw, viaFleet, reqID)
			if err != nil {
				return nil, err
			}
			out.Generator = file.Generator
			out.Runs = append(out.Runs, file.Runs...)
			points += sw.Points()
		}
		if !viaFleet {
			s.observeExploreRung(before, points)
		}
		return out, nil
	}
}

// observeExploreRung records what fraction of a rung's points were
// resolved without a fresh local simulation (memo join or store hit).
func (s *Server) observeExploreRung(before sim.RunnerStats, points int) {
	s.histMu.Lock()
	h := s.exploreRungHit
	s.histMu.Unlock()
	if h == nil || points == 0 {
		return
	}
	d := s.backend.Stats().Sub(before)
	resolved := d.CacheHits + d.StoreHits
	if resolved > uint64(points) {
		resolved = uint64(points) // concurrent sweeps can inflate the delta
	}
	h.Add(int(100 * resolved / uint64(points)))
}

// registerExploreMetrics publishes the exploration counters next to the
// sweep metrics.
func (s *Server) registerExploreMetrics(reg *obs.Registry, prefix string) {
	reg.Func(prefix+".explore.accepted", func() any { return s.exploresAccepted.Value() })
	reg.Func(prefix+".explore.candidates", func() any { return s.exploreCandidates.Value() })
	reg.Func(prefix+".explore.rungs", func() any { return s.exploreRungs.Value() })
	reg.Func(prefix+".explore.frontier_size", func() any { return s.lastFrontierSize.Load() })
	s.histMu.Lock()
	if s.exploreRungHit == nil {
		s.exploreRungHit = reg.Histogram(prefix + ".explore.rung_store_hit_pct")
	}
	s.histMu.Unlock()
}
