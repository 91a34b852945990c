package fleet

// Coordinator tests against scripted leaf nodes: canonical scatter/gather
// ordering, Retry-After-honouring busy retries, drain re-dispatch, hedged
// stragglers, peer store resolution, and permanent-rejection abort. The
// nodes execute sub-sweeps synthetically (zero-result run records), which
// is all the merge layer needs — identity and byte-stability are
// functions of (scheme, bench, options), not of simulation output.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regcache/internal/pipeline"
	"regcache/internal/sim"
)

// testNode is one scripted fleet member. Its behaviour is swappable per
// test via setHandler; the default executes leaf sub-sweeps synthetically.
type testNode struct {
	t       *testing.T
	ts      *httptest.Server
	url     string
	posts   atomic.Int32 // POST /v1/sweep requests received
	points  atomic.Int32 // points executed across those posts
	handler atomic.Value // http.HandlerFunc
}

func (n *testNode) setHandler(h http.HandlerFunc) { n.handler.Store(h) }

// execLeaf is the default node behaviour: validate the leaf marker, parse
// the sub-sweep, and answer with deterministic synthetic run records.
func (n *testNode) execLeaf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/sweep" {
		http.NotFound(w, r)
		return
	}
	if r.Header.Get(LeafHeader) != LeafValue {
		n.t.Errorf("node %s: sub-sweep missing %s: %s header", n.url, LeafHeader, LeafValue)
	}
	var req sim.SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.SchemeRecords) != 1 {
		http.Error(w, "want exactly one scheme per sub-sweep", http.StatusBadRequest)
		return
	}
	sc, err := req.SchemeRecords[0].ToScheme()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	o := req.Options()
	runs := make([]sim.RunRecord, 0, len(req.Benches))
	for _, b := range req.Benches {
		runs = append(runs, sim.NewRunRecord(b, sc, o, pipeline.Result{}))
	}
	n.points.Add(int32(len(runs)))
	data, err := json.Marshal(&sim.ResultsFile{
		SchemaVersion: sim.ResultsSchemaVersion,
		Generator:     "regsimd",
		Runs:          runs,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func newTestNode(t *testing.T) *testNode {
	n := &testNode{t: t}
	n.handler.Store(http.HandlerFunc(n.execLeaf))
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sweep" {
			n.posts.Add(1)
		}
		n.handler.Load().(http.HandlerFunc)(w, r)
	}))
	n.url = n.ts.URL
	t.Cleanup(n.ts.Close)
	return n
}

func newTestFleet(t *testing.T, n int, cfg Config) ([]*testNode, *Coordinator) {
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = newTestNode(t)
		cfg.Endpoints = append(cfg.Endpoints, nodes[i].url)
	}
	return nodes, New(cfg)
}

// nodeByURL finds the test node behind an endpoint URL.
func nodeByURL(t *testing.T, nodes []*testNode, url string) *testNode {
	t.Helper()
	for _, n := range nodes {
		if n.url == url {
			return n
		}
	}
	t.Fatalf("no test node with url %q", url)
	return nil
}

// ownerOf returns the endpoint owning one point on the coordinator's ring.
func ownerOf(co *Coordinator, bench string, s sim.Scheme, o sim.Options) string {
	return co.ring.Owner(sim.FingerprintPoint(bench, s, o))
}

var testSchemes = mustSchemes("use:16x2:filtered", "mono:3")

func mustSchemes(specs ...string) []sim.Scheme {
	out := make([]sim.Scheme, len(specs))
	for i, s := range specs {
		sc, err := sim.ParseSchemeSpec(s)
		if err != nil {
			panic(err)
		}
		out[i] = sc
	}
	return out
}

func TestCoordinatorScatterGatherCanonicalOrder(t *testing.T) {
	nodes, co := newTestFleet(t, 3, Config{})
	spec := sim.Sweep{
		Schemes: testSchemes,
		Benches: []string{"gzip", "gcc", "mcf", "twolf"},
		Opts:    sim.Options{Insts: 2000},
	}
	file, err := co.Run(context.Background(), spec, "r-test")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(file.Runs) != spec.Points() {
		t.Fatalf("%d runs, want %d", len(file.Runs), spec.Points())
	}
	// The merged document must follow the canonical scheme-outer ×
	// bench-inner order, exactly like a single node's response.
	i := 0
	for _, sc := range spec.Schemes {
		for _, b := range spec.Benches {
			r := file.Runs[i]
			if r.Scheme.Name != sc.Name || r.Bench != b {
				t.Fatalf("run %d = %s/%s, want %s/%s", i, r.Scheme.Name, r.Bench, sc.Name, b)
			}
			i++
		}
	}
	// Each point executed exactly once, fleet-wide.
	var total int32
	for _, n := range nodes {
		total += n.points.Load()
	}
	if total != int32(spec.Points()) {
		t.Fatalf("fleet executed %d points, want exactly %d", total, spec.Points())
	}
	// And a second, identical run must produce byte-identical output.
	again, err := co.Run(context.Background(), spec, "r-test-2")
	if err != nil {
		t.Fatalf("Run again: %v", err)
	}
	a, _ := json.Marshal(file)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("merged documents differ across identical runs:\n%s\n%s", a, b)
	}
}

// singlePointSpec returns a one-partition spec (one scheme, one bench).
func singlePointSpec() sim.Sweep {
	return sim.Sweep{
		Schemes: testSchemes[:1],
		Benches: []string{"gzip"},
		Opts:    sim.Options{Insts: 2000},
	}
}

func TestCoordinatorBusyRetryHonorsRetryAfter(t *testing.T) {
	nodes, co := newTestFleet(t, 1, Config{})
	node := nodes[0]
	var calls atomic.Int32
	var firstShed, retried time.Time
	exec := http.HandlerFunc(node.execLeaf)
	node.setHandler(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			firstShed = time.Now()
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		retried = time.Now()
		exec(w, r)
	})
	if _, err := co.Run(context.Background(), singlePointSpec(), ""); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := co.busyRetries.Value(); got != 1 {
		t.Fatalf("BusyRetries = %d, want 1", got)
	}
	if gap := retried.Sub(firstShed); gap < 700*time.Millisecond {
		t.Fatalf("retry arrived after %v, want >= ~1s (Retry-After honoured)", gap)
	}
}

func TestCoordinatorRedispatchOnDrain503(t *testing.T) {
	nodes, co := newTestFleet(t, 2, Config{})
	spec := singlePointSpec()
	owner := nodeByURL(t, nodes, ownerOf(co, spec.Benches[0], spec.Schemes[0], spec.Opts))
	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"server is draining"}`, http.StatusServiceUnavailable)
	})
	start := time.Now()
	file, err := co.Run(context.Background(), spec, "")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(file.Runs) != 1 {
		t.Fatalf("%d runs, want 1", len(file.Runs))
	}
	if got := co.redispatches.Value(); got != 1 {
		t.Fatalf("Redispatches = %d, want 1", got)
	}
	// Draining advances to the next ring node immediately — it must not
	// burn the same-node busy-retry budget or wait out the Retry-After.
	if got := co.busyRetries.Value(); got != 0 {
		t.Fatalf("BusyRetries = %d, want 0 for a drain 503", got)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("drain re-dispatch took %v, want immediate advance", elapsed)
	}
}

func TestCoordinatorHedgesStraggler(t *testing.T) {
	nodes, co := newTestFleet(t, 2, Config{HedgeAfter: 50 * time.Millisecond})
	spec := singlePointSpec()
	owner := nodeByURL(t, nodes, ownerOf(co, spec.Benches[0], spec.Schemes[0], spec.Opts))
	// The owner hangs on sub-sweeps (until the winner cancels it) but
	// still answers store probes with a miss — the killed-node-but-
	// reachable-disk case is covered separately. The body must be drained
	// before blocking: Go's HTTP server only watches for client
	// disconnect (cancelling r.Context) once the request body hits EOF.
	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			http.NotFound(w, r)
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	start := time.Now()
	file, err := co.Run(context.Background(), spec, "")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(file.Runs) != 1 {
		t.Fatalf("%d runs, want 1", len(file.Runs))
	}
	if hedges, wins := co.hedges.Value(), co.hedgeWins.Value(); hedges != 1 || wins != 1 {
		t.Fatalf("Hedges = %d, HedgeWins = %d, want 1/1", hedges, wins)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged completion took %v, want well under the stuck primary's lifetime", elapsed)
	}
}

func TestCoordinatorPeerStoreResolvesPoints(t *testing.T) {
	nodes, co := newTestFleet(t, 2, Config{})
	sc := testSchemes[0]
	benches := []string{"gzip", "gcc", "mcf", "twolf"}
	opts := sim.Options{Insts: 2000}

	// Split the benches by ring owner; give the "down" node a populated
	// store shard for every point it owns.
	var downNode *testNode
	stored := make(map[string][]byte)
	var ownedByDown, ownedByLive int
	for _, b := range benches {
		ownerURL := ownerOf(co, b, sc, opts)
		if downNode == nil && ownerURL != "" {
			downNode = nodeByURL(t, nodes, ownerURL)
		}
		if downNode != nil && ownerURL == downNode.url {
			ownedByDown++
			stored[sim.FingerprintPoint(b, sc, opts).String()] = sim.EncodeStoredPayload(b, sc, opts, pipeline.Result{})
		} else {
			ownedByLive++
		}
	}
	if ownedByDown == 0 {
		t.Fatal("test setup: the down node owns no points")
	}
	downNode.setHandler(func(w http.ResponseWriter, r *http.Request) {
		// Sub-sweeps are refused (node draining), but the store shard
		// still serves GETs — a restarting node's disk outlives its pool.
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/store/") {
			if payload, ok := stored[strings.TrimPrefix(r.URL.Path, "/v1/store/")]; ok {
				w.Header().Set("Content-Type", "application/octet-stream")
				_, _ = w.Write(payload)
				return
			}
			http.NotFound(w, r)
			return
		}
		http.Error(w, `{"error":"server is draining"}`, http.StatusServiceUnavailable)
	})

	spec := sim.Sweep{Schemes: []sim.Scheme{sc}, Benches: benches, Opts: opts}
	file, err := co.Run(context.Background(), spec, "")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(file.Runs) != len(benches) {
		t.Fatalf("%d runs, want %d", len(file.Runs), len(benches))
	}
	if hits, resolved := co.storeHits.Value(), co.pointsResolved.Value(); int(hits) != ownedByDown || int(resolved) != ownedByDown {
		t.Fatalf("StoreHits = %d, PointsResolved = %d, want both %d (down node's points answered from its shard)",
			hits, resolved, ownedByDown)
	}
	// Zero duplicate simulations: the live node executed only its own
	// points — the down node's points came purely from the store probes.
	live := nodes[0]
	if live == downNode {
		live = nodes[1]
	}
	if got := int(live.points.Load()); got != ownedByLive {
		t.Fatalf("live node executed %d points, want %d (no re-simulation of store-resident points)",
			got, ownedByLive)
	}
}

func TestCoordinatorPermanentRejectionAborts(t *testing.T) {
	nodes, co := newTestFleet(t, 2, Config{})
	spec := singlePointSpec()
	owner := nodeByURL(t, nodes, ownerOf(co, spec.Benches[0], spec.Schemes[0], spec.Opts))
	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown benchmark"}`, http.StatusBadRequest)
	})
	_, err := co.Run(context.Background(), spec, "")
	if err == nil {
		t.Fatal("Run succeeded, want a permanent rejection")
	}
	if !strings.Contains(err.Error(), "rejected permanently") {
		t.Fatalf("error %q does not mark the rejection permanent", err)
	}
	// A 400 means the request itself is bad — trying other nodes would
	// just spread it.
	if got := co.redispatches.Value(); got != 0 {
		t.Fatalf("Redispatches = %d, want 0 after a permanent rejection", got)
	}
}

func TestCoordinatorExhaustsRingThenFails(t *testing.T) {
	nodes, co := newTestFleet(t, 2, Config{})
	for _, n := range nodes {
		n.setHandler(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		})
	}
	_, err := co.Run(context.Background(), singlePointSpec(), "")
	if err == nil {
		t.Fatal("Run succeeded with every node draining")
	}
	if !strings.Contains(err.Error(), "no node could run the partition") {
		t.Fatalf("error %q, want ErrUnavailable wrapping", err)
	}
}

func TestParseRetryAfterFleet(t *testing.T) {
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	cases := []struct {
		in     string
		ok     bool
		lo, hi time.Duration
	}{
		{"", false, 0, 0},
		{"garbage", false, 0, 0},
		{"-3", false, 0, 0},
		{"0", true, 0, 0},
		{"7", true, 7 * time.Second, 7 * time.Second},
		{future, true, 8 * time.Second, 10 * time.Second},
		{past, true, 0, 0},
	}
	for _, c := range cases {
		d, ok := ParseRetryAfter(c.in)
		if ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok && (d < c.lo || d > c.hi) {
			t.Errorf("ParseRetryAfter(%q) = %v, want in [%v, %v]", c.in, d, c.lo, c.hi)
		}
	}
}

func TestCoordinatorRejectsEmptySweep(t *testing.T) {
	_, co := newTestFleet(t, 1, Config{})
	if _, err := co.Run(context.Background(), sim.Sweep{}, ""); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestHedgeDelayLearnsFromLatency(t *testing.T) {
	_, co := newTestFleet(t, 1, Config{HedgeAfter: 5 * time.Second})
	// Below the sample floor the configured fallback applies.
	if d := co.hedgeDelay(4); d != 5*time.Second {
		t.Fatalf("cold hedge delay = %v, want the 5s fallback", d)
	}
	for i := 0; i < 16; i++ {
		co.recordLatency(20*time.Millisecond, 1) // 20ms per point
	}
	// p99 ≈ 20ms × mult 3 × 4 points = 240ms.
	d := co.hedgeDelay(4)
	if d < 100*time.Millisecond || d > time.Second {
		t.Fatalf("learned hedge delay = %v, want ≈240ms", d)
	}
	// The floor stops an all-warm history collapsing into a hedge storm.
	for i := 0; i < 100; i++ {
		co.recordLatency(0, 1) // clamps to 1ms
	}
	if d := co.hedgeDelay(1); d < minHedgeDelay {
		t.Fatalf("hedge delay %v under the %v floor", d, minHedgeDelay)
	}
}
