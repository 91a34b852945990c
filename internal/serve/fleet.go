package serve

// Fleet plane: when regsimd runs with -peers, the server fronts the
// distributed sweep fabric (internal/fleet). A client-facing sweep is
// scattered across the fleet — this node executes only the partitions it
// owns on the consistent-hash ring (via leafExec, with normal admission
// accounting) and proxies the rest as leaf-marked sub-sweeps. Leaf
// requests from peer gateways are never re-scattered and always answered
// synchronously. Two more routes serve the fabric: GET /v1/store/{key}
// exposes this node's durable store shard for peer lookups (so a hedged
// partition never re-simulates a store-resident point), and GET /v1/peers
// reports fleet membership and drain state.

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"regcache/internal/fleet"
	"regcache/internal/obs"
	"regcache/internal/sim"
	"regcache/internal/store"
)

// fleetEnabled reports whether this server fronts a fleet.
func (s *Server) fleetEnabled() bool { return s.fleet != nil }

// execSweep routes an admitted sweep: scattered across the fleet for
// client-facing requests on a fleet member, executed on the local backend
// otherwise (single-node servers and leaf sub-sweeps).
func (s *Server) execSweep(ctx context.Context, sw sim.Sweep, viaFleet bool, reqID string) (*sim.ResultsFile, error) {
	if !viaFleet {
		return s.runSweep(ctx, sw)
	}
	return s.fleet.Run(ctx, sw, reqID)
}

// leafExec is the coordinator's in-process executor for the partitions
// this node owns. It runs the same admission accounting a leaf HTTP
// request would get, translated to the fabric's error vocabulary: a full
// queue becomes a BusyError carrying the load-scaled Retry-After hint
// (retry here), draining becomes ErrDraining (re-dispatch to a peer).
func (s *Server) leafExec(ctx context.Context, sw sim.Sweep) (*sim.ResultsFile, error) {
	n := sw.Points()
	ok, draining := s.admit(n)
	if draining {
		return nil, fleet.ErrDraining
	}
	if !ok {
		s.rejectedBusy.Add(1)
		return nil, &fleet.BusyError{RetryAfter: s.retryAfterHint()}
	}
	defer s.release(n)
	s.pointsSubmitted.Add(uint64(n))
	return s.runSweep(ctx, sw)
}

// retryAfterHint scales the 429 back-off hint with queue pressure so
// fleet peers (and polite clients) back off proportionally: an empty
// queue returns retryAfterBase, a full queue 8× that, linear in between.
func (s *Server) retryAfterHint() time.Duration {
	frac := float64(s.QueuedPoints()) / float64(s.cfg.MaxQueuedPoints)
	if frac > 1 {
		frac = 1
	}
	return retryAfterBase + time.Duration(frac*7*float64(retryAfterBase))
}

// setRetryAfter renders a duration as the Retry-After header, rounded up
// to whole seconds (the header's coarsest portable unit).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(d.Seconds()))))
}

// handleStoreGet serves this node's durable store shard to the fleet:
// GET /v1/store/{key} returns the raw stored payload for a fingerprint
// as application/octet-stream (the binary bytes sim.DecodeStoredPayload
// parses). Peers probe it before
// re-simulating a point whose owner cannot take the sub-sweep. It keeps
// answering during drain — a draining node's shard is exactly what the
// surviving nodes need.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		httpError(w, http.StatusNotFound, "no durable store configured")
		return
	}
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	data, err := s.cfg.Store.Store().Get(key)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrCorrupt):
		// A corrupt record is a miss from the fleet's point of view: the
		// prober falls back to simulation, which re-puts a good record.
		httpError(w, http.StatusNotFound, "not found")
	case errors.Is(err, store.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "store closed")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// peersResponse is the GET /v1/peers body.
type peersResponse struct {
	Self         string   `json:"self,omitempty"`
	Endpoints    []string `json:"endpoints"`
	Draining     bool     `json:"draining"`
	QueuedPoints int      `json:"queued_points"`
	Store        bool     `json:"store"`
}

// handlePeers reports fleet membership and this node's health — the
// fabric's discovery/health endpoint. On a single-node server it reports
// an empty fleet, so clients can always ask.
func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	resp := peersResponse{
		Endpoints:    []string{},
		Draining:     s.Draining(),
		QueuedPoints: s.QueuedPoints(),
		Store:        s.cfg.Store != nil,
	}
	if s.fleet != nil {
		resp.Self = s.cfg.SelfURL
		resp.Endpoints = s.fleet.Endpoints()
	}
	writeJSON(w, resp)
}

// registerFleetMetrics publishes the coordinator's counters next to the
// service metrics.
func (s *Server) registerFleetMetrics(reg *obs.Registry, prefix string) {
	if s.fleet != nil {
		s.fleet.RegisterMetrics(reg, prefix+".fleet")
	}
}

// isLeaf reports whether the request is a fabric sub-sweep (dispatched by
// a peer gateway): executed locally, answered synchronously, never
// re-scattered.
func isLeaf(r *http.Request) bool {
	return r.Header.Get(fleet.LeafHeader) == fleet.LeafValue
}
