package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"regcache/internal/obs"
	"regcache/internal/pipeline"
	"regcache/internal/sim"
	"regcache/internal/stats"
	"regcache/internal/store"
)

// LeafHeader marks a sub-sweep dispatched by the fabric. A node receiving
// it executes the request entirely locally — never re-scatters (so peer
// meshes cannot recurse) and always answers synchronously (the dispatching
// coordinator is the one holding the client connection or job).
const LeafHeader = "X-Regsim-Fleet"

// LeafValue is the LeafHeader value for sub-sweeps.
const LeafValue = "leaf"

// requestIDHeader mirrors serve.RequestIDHeader (fleet cannot import serve)
// so one request ID traces the whole fan-out across every node's logs,
// metrics, and flight recorder.
const requestIDHeader = "X-Request-Id"

// Sentinel errors classifying why a node could not take a partition.
var (
	// ErrUnavailable wraps a partition failure after every candidate node
	// was tried; the gateway maps it to 502.
	ErrUnavailable = errors.New("fleet: no node could run the partition")
	// ErrDraining is a node refusing work because it is shutting down; the
	// partition advances to the next node on the ring.
	ErrDraining = errors.New("fleet: node is draining")
	// errPermanent is a rejection retrying elsewhere cannot fix (the leaf
	// judged the request itself invalid — version skew between nodes).
	errPermanent = errors.New("fleet: request rejected permanently")
)

// BusyError is a node shedding load (HTTP 429, or a gateway's own full
// admission queue): the partition retries the same node after RetryAfter
// before advancing along the ring.
type BusyError struct{ RetryAfter time.Duration }

func (e *BusyError) Error() string {
	return fmt.Sprintf("fleet: node busy (retry after %s)", e.RetryAfter)
}

// LocalExec executes one leaf partition (a one-scheme sweep) in-process —
// the gateway's own share of a sweep, with the same admission accounting
// a remote sub-sweep would get. Return *BusyError or ErrDraining to make
// the coordinator treat the local node exactly like a shedding or
// draining peer.
type LocalExec func(ctx context.Context, part sim.Sweep) (*sim.ResultsFile, error)

// Config describes a Coordinator's fleet.
type Config struct {
	Endpoints []string  // every node of the fleet (identical strings on every member)
	Self      string    // endpoint executed via Local instead of HTTP ("" = none)
	Local     LocalExec // in-process executor for Self's partitions

	// HedgeAfter is the straggler deadline used until the latency
	// histogram has enough samples to derive one; default 2s.
	HedgeAfter time.Duration
}

// The fabric's fixed tuning.
const (
	// hedgeQuantile and hedgeMult derive the learned straggler deadline:
	// the quantile of observed per-point partition latency, times the
	// partition's point count, times the multiplier.
	hedgeQuantile = 0.99
	hedgeMult     = 3

	busyRetries       = 2               // same-node retries on a 429 before advancing
	maxBusyWait       = 5 * time.Second // cap on an honored Retry-After
	storeProbeTimeout = time.Second     // per-point peer store GET budget

	generator = "regsimd" // the merged document's generator field
)

// Coordinator scatters sweeps across a fleet and gathers the partials
// into one byte-stable document. Safe for concurrent use.
type Coordinator struct {
	cfg  Config
	ring *Ring

	histMu sync.Mutex
	lat    *stats.Histogram // per-point partition latency, milliseconds

	partitions, subsweeps, hedges, hedgeWins obs.Counter
	redispatches, busyRetries                obs.Counter
	storeProbes, storeHits, pointsResolved   obs.Counter

	partWall *obs.HistogramVar // nil until RegisterMetrics
}

// New builds a coordinator over the configured fleet. Self (when set) is
// added to the endpoint set automatically.
func New(cfg Config) *Coordinator {
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 2 * time.Second
	}
	eps := cfg.Endpoints
	if cfg.Self != "" {
		eps = append(append([]string(nil), eps...), cfg.Self)
	}
	return &Coordinator{
		cfg:  cfg,
		ring: NewRing(eps),
		lat:  stats.NewHistogram(),
	}
}

// Endpoints returns the fleet's distinct endpoints, sorted.
func (c *Coordinator) Endpoints() []string { return c.ring.Nodes() }

// RegisterMetrics publishes the fabric counters and the per-partition
// latency histogram under prefix (e.g. "serve.fleet").
func (c *Coordinator) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Func(prefix+".endpoints", func() any { return len(c.ring.Nodes()) })
	reg.CounterFunc(prefix+".partitions", c.partitions.Value)
	reg.CounterFunc(prefix+".subsweeps", c.subsweeps.Value)
	reg.CounterFunc(prefix+".hedges", c.hedges.Value)
	reg.CounterFunc(prefix+".hedge_wins", c.hedgeWins.Value)
	reg.CounterFunc(prefix+".redispatches", c.redispatches.Value)
	reg.CounterFunc(prefix+".busy_retries", c.busyRetries.Value)
	reg.CounterFunc(prefix+".peer_store_probes", c.storeProbes.Value)
	reg.CounterFunc(prefix+".peer_store_hits", c.storeHits.Value)
	reg.CounterFunc(prefix+".points_store_resolved", c.pointsResolved.Value)
	c.histMu.Lock()
	if c.partWall == nil {
		c.partWall = reg.Histogram(prefix + ".partition_wall_ms")
	}
	c.histMu.Unlock()
}

// point is one expanded sweep point in canonical order.
type point struct {
	index     int // position in the canonical scheme-outer × bench-inner order
	bench     string
	schemeIdx int
	key       store.Key
}

// partition is one (owner node, scheme) group of points — the unit of
// dispatch, retry, and hedging. Its benches stay in canonical request
// order so a leaf's response maps back positionally.
type partition struct {
	owner     string
	schemeIdx int
	benches   []string
	points    []point
}

// expand lists the sweep's points in canonical order alongside their
// identity strings (the merge order).
func expand(spec sim.Sweep) ([]point, []string) {
	pts := make([]point, 0, spec.Points())
	order := make([]string, 0, spec.Points())
	i := 0
	for si, sc := range spec.Schemes {
		for _, b := range spec.Benches {
			pts = append(pts, point{
				index:     i,
				bench:     b,
				schemeIdx: si,
				key:       sim.FingerprintPoint(b, sc, spec.Opts),
			})
			order = append(order, sim.PointIdentity(b, sc, spec.Opts))
			i++
		}
	}
	return pts, order
}

// partitionPoints groups points by (ring owner, scheme), preserving
// canonical bench order inside each group. Deterministic: iteration
// follows point order and group keys are first-seen ordered.
func (c *Coordinator) partitionPoints(pts []point) []*partition {
	type gkey struct {
		owner     string
		schemeIdx int
	}
	byKey := make(map[gkey]*partition)
	var out []*partition
	for _, p := range pts {
		k := gkey{owner: c.ring.Owner(p.key), schemeIdx: p.schemeIdx}
		g, ok := byKey[k]
		if !ok {
			g = &partition{owner: k.owner, schemeIdx: p.schemeIdx}
			byKey[k] = g
			out = append(out, g)
		}
		g.benches = append(g.benches, p.bench)
		g.points = append(g.points, p)
	}
	return out
}

// Run scatters the sweep across the fleet, gathers the partial results,
// and merges them into one canonical document — byte-identical to what a
// single node would return for the same request. reqID (optional) is
// propagated to every sub-sweep as X-Request-Id so one ID traces the
// whole fan-out.
func (c *Coordinator) Run(ctx context.Context, spec sim.Sweep, reqID string) (*sim.ResultsFile, error) {
	if len(c.ring.Nodes()) == 0 {
		return nil, errors.New("fleet: no endpoints configured")
	}
	if spec.Points() == 0 {
		return nil, errors.New("fleet: empty sweep")
	}
	sp := obs.SpanFromContext(ctx)
	pts, order := expand(spec)
	parts := c.partitionPoints(pts)
	c.partitions.Add(uint64(len(parts)))

	ssp := sp.StartChild("scatter")
	ssp.SetInt("partitions", int64(len(parts)))
	ssp.SetInt("points", int64(len(pts)))
	partials := make([]*sim.ResultsFile, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			psp := ssp.StartChild("partition")
			psp.SetString("node", p.owner)
			psp.SetInt("points", int64(len(p.points)))
			start := time.Now()
			partials[i], errs[i] = c.runPartition(obs.ContextWithSpan(ctx, psp), p, spec, reqID)
			c.observePartition(time.Since(start))
			psp.SetError(errs[i])
			psp.End()
		}()
	}
	wg.Wait()
	ssp.End()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	msp := sp.StartChild("merge")
	file, err := sim.MergeResultsFiles(generator, order, partials)
	msp.SetError(err)
	msp.End()
	return file, err
}

func (c *Coordinator) observePartition(wall time.Duration) {
	c.histMu.Lock()
	h := c.partWall
	c.histMu.Unlock()
	if h != nil {
		h.Add(int(wall.Milliseconds()))
	}
}

// hedgeMinSamples gates the learned deadline: below it the configured
// HedgeAfter fallback applies.
const hedgeMinSamples = 8

// minHedgeDelay floors the learned deadline so an all-warm latency
// history cannot collapse it into a hedge storm.
const minHedgeDelay = 25 * time.Millisecond

// maxHedgeDelay caps the learned deadline (a few pathological samples
// must not disable hedging entirely).
const maxHedgeDelay = 30 * time.Second

// hedgeDelay derives the straggler deadline for a partition of n points
// from the observed per-point latency distribution.
func (c *Coordinator) hedgeDelay(n int) time.Duration {
	c.histMu.Lock()
	defer c.histMu.Unlock()
	if c.lat.N() < hedgeMinSamples {
		return c.cfg.HedgeAfter
	}
	per := c.lat.Percentile(hedgeQuantile)
	d := time.Duration(float64(per) * hedgeMult * float64(n) * float64(time.Millisecond))
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if d > maxHedgeDelay {
		d = maxHedgeDelay
	}
	return d
}

// recordLatency feeds a completed partition into the per-point latency
// histogram: one sample per point, so a partition's weight in the learned
// deadline matches the work it represents (and one small sweep is enough
// to cross the hedgeMinSamples gate).
func (c *Coordinator) recordLatency(wall time.Duration, n int) {
	if n <= 0 {
		return
	}
	ms := int(wall.Milliseconds()) / n
	if ms < 1 {
		ms = 1
	}
	c.histMu.Lock()
	c.lat.AddN(ms, uint64(n))
	c.histMu.Unlock()
}

// runPartition drives one partition to completion: dispatch to the owner,
// hedge to ring successors past the straggler deadline, advance on
// failure, first success wins and cancels the rest.
func (c *Coordinator) runPartition(ctx context.Context, p *partition, spec sim.Sweep, reqID string) (*sim.ResultsFile, error) {
	candidates := c.ring.Successors(p.points[0].key, len(c.ring.Nodes()))
	pctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	type outcome struct {
		file   *sim.ResultsFile
		err    error
		node   string
		hedged bool
		wall   time.Duration
	}
	resc := make(chan outcome, len(candidates))
	launch := func(node string, hedged bool) {
		c.subsweeps.Add(1)
		go func() {
			start := time.Now()
			f, err := c.attempt(pctx, node, p, spec, reqID)
			resc <- outcome{file: f, err: err, node: node, hedged: hedged, wall: time.Since(start)}
		}()
	}

	next := 0
	launch(candidates[next], false)
	next++
	outstanding := 1
	delay := c.hedgeDelay(len(p.points))
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var failures []error
	for {
		select {
		case out := <-resc:
			outstanding--
			if out.err == nil {
				c.recordLatency(out.wall, len(p.points))
				if out.hedged {
					c.hedgeWins.Add(1)
				}
				return out.file, nil
			}
			if pctx.Err() != nil {
				// The sweep context expired; report that, not the
				// attempt's secondary cancellation error.
				return nil, ctx.Err()
			}
			failures = append(failures, fmt.Errorf("%s: %w", out.node, out.err))
			if errors.Is(out.err, errPermanent) {
				return nil, errors.Join(failures...)
			}
			if next < len(candidates) {
				c.redispatches.Add(1)
				launch(candidates[next], false)
				next++
				outstanding++
			} else if outstanding == 0 {
				return nil, fmt.Errorf("%w (%d points, %d nodes tried): %w",
					ErrUnavailable, len(p.points), len(candidates), errors.Join(failures...))
			}
		case <-timer.C:
			if next < len(candidates) {
				c.hedges.Add(1)
				launch(candidates[next], true)
				next++
				outstanding++
				timer.Reset(delay)
			}
		case <-pctx.Done():
			return nil, ctx.Err()
		}
	}
}

// attempt runs the partition once against one node. A non-owner target
// first probes the owner's durable store shard for each point (the
// fleet-wide store lookup), so hedged and re-dispatched partitions never
// re-simulate store-resident points while the owner can still serve GETs.
// A 429 (or local BusyError) retries the same node after its Retry-After
// hint, up to busyRetries times.
func (c *Coordinator) attempt(ctx context.Context, node string, p *partition, spec sim.Sweep, reqID string) (*sim.ResultsFile, error) {
	sp := obs.SpanFromContext(ctx)
	asp := sp.StartChild("attempt")
	asp.SetString("node", node)
	defer asp.End()

	resolved := []sim.RunRecord(nil)
	benches := p.benches
	if node != p.owner {
		resolved, benches = c.probeOwnerStore(ctx, p, spec)
		asp.SetInt("store_resolved", int64(len(resolved)))
		if len(benches) == 0 {
			c.pointsResolved.Add(uint64(len(resolved)))
			return &sim.ResultsFile{
				SchemaVersion: sim.ResultsSchemaVersion,
				Generator:     generator,
				Runs:          resolved,
			}, nil
		}
	}

	for try := 0; ; try++ {
		file, err := c.dispatch(ctx, node, benches, spec, p.schemeIdx, reqID)
		var busy *BusyError
		if errors.As(err, &busy) && try < busyRetries {
			c.busyRetries.Add(1)
			wait := busy.RetryAfter
			if wait <= 0 {
				wait = 250 * time.Millisecond
			}
			if wait > maxBusyWait {
				wait = maxBusyWait
			}
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if err != nil {
			asp.SetError(err)
			return nil, err
		}
		c.pointsResolved.Add(uint64(len(resolved)))
		file.Runs = append(file.Runs, resolved...)
		return file, nil
	}
}

// probeOwnerStore GETs each point's fingerprint from the owner's
// /v1/store shard with a short per-point budget, returning the resolved
// runs and the benches still needing simulation. Any probe failure simply
// leaves the point unresolved — the fabric degrades to re-simulation.
func (c *Coordinator) probeOwnerStore(ctx context.Context, p *partition, spec sim.Sweep) (resolved []sim.RunRecord, remaining []string) {
	sc := spec.Schemes[p.schemeIdx]
	for _, pt := range p.points {
		res, ok := c.storeGet(ctx, p.owner, pt.key)
		if !ok {
			remaining = append(remaining, pt.bench)
			continue
		}
		resolved = append(resolved, sim.NewRunRecord(pt.bench, sc, spec.Opts, res))
	}
	return resolved, remaining
}

// storeGet is one peer store probe.
func (c *Coordinator) storeGet(ctx context.Context, node string, key store.Key) (res pipeline.Result, ok bool) {
	c.storeProbes.Add(1)
	pctx, cancel := context.WithTimeout(ctx, storeProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, node+"/v1/store/"+key.String(), nil)
	if err != nil {
		return res, false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return res, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return res, false
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, false
	}
	_, result, err := sim.DecodeStoredPayload(data)
	if err != nil {
		return res, false
	}
	c.storeHits.Add(1)
	return result, true
}

// dispatch executes one sub-sweep on one node: in-process for Self,
// HTTP POST /v1/sweep (marked leaf) for everyone else. The HTTP body is
// the full /v1/sweep wire type, with the scheme as a full-fidelity record
// so the leaf reconstructs exactly the scheme the gateway parsed.
func (c *Coordinator) dispatch(ctx context.Context, node string, benches []string, spec sim.Sweep, schemeIdx int, reqID string) (*sim.ResultsFile, error) {
	sc := spec.Schemes[schemeIdx]
	if node == c.cfg.Self && c.cfg.Local != nil {
		return c.cfg.Local(ctx, sim.Sweep{Schemes: []sim.Scheme{sc}, Benches: benches, Opts: spec.Opts, Timings: spec.Timings})
	}
	body := sim.SweepRequest{
		Benches:       benches,
		SchemeRecords: []sim.SchemeRecord{sim.NewSchemeRecord(sc)},
		Timings:       spec.Timings,
	}
	body.SetOptions(spec.Opts)
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			body.DeadlineMS = ms
		}
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("fleet: marshal sub-sweep: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/sweep", bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("fleet: build sub-sweep: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(LeafHeader, LeafValue)
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: sub-sweep to %s: %w", node, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading sub-sweep response from %s: %w", node, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var f sim.ResultsFile
		if err := json.Unmarshal(payload, &f); err != nil {
			return nil, fmt.Errorf("fleet: parse sub-sweep response from %s: %w", node, err)
		}
		return &f, nil
	case http.StatusTooManyRequests:
		ra, _ := ParseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, &BusyError{RetryAfter: ra}
	case http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%w: %s", ErrDraining, errBody(payload))
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		return nil, fmt.Errorf("%w: %s: %s", errPermanent, resp.Status, errBody(payload))
	default:
		return nil, fmt.Errorf("fleet: sub-sweep to %s: %s: %s", node, resp.Status, errBody(payload))
	}
}

// errBody extracts the service's {"error": ...} message, falling back to
// the raw body.
func errBody(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(data))
}

// ParseRetryAfter interprets a Retry-After header per RFC 9110: either a
// non-negative decimal number of seconds or an HTTP-date. A date in the
// past reports a zero duration with ok=true, distinct from the !ok of an
// absent or malformed header.
func ParseRetryAfter(ra string) (time.Duration, bool) {
	if ra == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(ra); err == nil {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}
