// Cluster E2E: three real regsimd servers wired into a fleet over
// loopback HTTP, exercised through the public surface only (POST
// /v1/sweep on a gateway node). The external test package keeps the
// serve → fleet import direction honest.
package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regcache/internal/fleet"
	"regcache/internal/obs"
	"regcache/internal/serve"
	"regcache/internal/sim"
	"regcache/internal/store"
)

// clusterBody is the 2×4 = 8-point matrix every cluster test sweeps. The
// insts budget matches the store E2E tests: big enough to exercise the
// real pipeline, small enough to keep a 3-node cluster test fast.
const clusterBody = `{"benches":["gzip","gcc","mcf","twolf"],"schemes":["use:16x2:filtered","mono:3"],"insts":2000}`

const clusterPoints = 8

// clusterMTBody is the same matrix at two contexts with a 4-instruction
// fetch quantum: sub-sweeps must carry both options to their leaves.
const clusterMTBody = `{"benches":["gzip","gcc","mcf","twolf"],"schemes":["use:16x2:filtered","mono:3"],"insts":2000,"threads":2,"interleave":4}`

func clusterMatrix(t *testing.T) (benches []string, schemes []sim.Scheme, opts sim.Options) {
	t.Helper()
	benches = []string{"gzip", "gcc", "mcf", "twolf"}
	for _, spec := range []string{"use:16x2:filtered", "mono:3"} {
		sc, err := sim.ParseSchemeSpec(spec)
		if err != nil {
			t.Fatalf("parse scheme %q: %v", spec, err)
		}
		schemes = append(schemes, sc)
	}
	return benches, schemes, sim.Options{Insts: 2000}
}

type clusterNode struct {
	url     string
	srv     *serve.Server
	metrics *obs.Registry // the node's serve.* metrics
	ts      *httptest.Server
	backend *sim.Runner
	store   *sim.ResultStore

	drainOnce sync.Once
}

// drain gracefully drains the node exactly once (serve.Drain closes the
// backend, which is not safe to do twice).
func (n *clusterNode) drain(tb testing.TB) {
	n.drainOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := n.srv.Drain(ctx); err != nil {
			tb.Errorf("drain %s: %v", n.url, err)
		}
	})
}

type cluster struct {
	nodes []*clusterNode
	ring  *fleet.Ring // every member's view of point ownership
}

func (c *cluster) gateway() *clusterNode { return c.nodes[0] }

// ownerOf returns the member owning one point: the node whose store
// shard holds (or will hold) its result.
func (c *cluster) ownerOf(bench string, s sim.Scheme, o sim.Options) string {
	return c.ring.Owner(sim.FingerprintPoint(bench, s, o))
}

// fleetCounter reads one of the gateway's serve.fleet.* counters.
func (c *cluster) fleetCounter(name string) uint64 {
	return c.gateway().metrics.Snapshot()["serve.fleet."+name].(uint64)
}

// jobsRun sums simulations actually executed across the whole fleet —
// the "no duplicate work" ledger.
func (c *cluster) jobsRun() uint64 {
	var total uint64
	for _, n := range c.nodes {
		total += n.backend.Stats().JobsRun
	}
	return total
}

// resetStats zeroes every node's runner ledger. ResetStats fences against
// the asynchronous store flusher, so on return every append from work
// completed so far is durable — which the hedge test needs before it can
// rely on peer store shards.
func (c *cluster) resetStats() {
	for _, n := range c.nodes {
		n.backend.ResetStats()
	}
}

type clusterOpts struct {
	stores     bool
	hedgeAfter time.Duration
	// wrap, when set, intercepts node i's handler (the node pointer is
	// live but its ts field is not yet populated at wrap time).
	wrap func(i int, node *clusterNode, h http.Handler) http.Handler
}

// startCluster boots n fleet members on pre-bound loopback listeners (so
// every node knows the full peer list before any server starts) sharing
// one workload cache. Node 0 is the conventional gateway, but any node
// can front a sweep.
func startCluster(t *testing.T, n int, opts clusterOpts) *cluster {
	t.Helper()
	wc := sim.NewWorkloadCache()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	// A generous straggler fallback keeps cold runs hedge-free even under
	// -race (a spurious hedge duplicates simulations and breaks the
	// exactly-once ledger assertions); once the cold run has fed the
	// latency histogram, the learned deadline takes over and adapts to
	// actual machine speed.
	if opts.hedgeAfter == 0 {
		opts.hedgeAfter = 10 * time.Second
	}
	c := &cluster{ring: fleet.NewRing(urls)}
	for i := 0; i < n; i++ {
		node := &clusterNode{url: urls[i]}
		node.backend = sim.NewRunnerWith(2, wc)
		if opts.stores {
			rs, err := sim.OpenResultStore(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			if err := node.backend.UseStore(rs); err != nil {
				t.Fatalf("attach store: %v", err)
			}
			node.store = rs
		}
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		node.srv = serve.New(serve.Config{
			Backend:         node.backend,
			MaxQueuedPoints: 256,
			MaxSyncPoints:   64,
			Peers:           peers,
			SelfURL:         urls[i],
			Store:           node.store,
			FleetHedgeAfter: opts.hedgeAfter,
		})
		node.metrics = obs.NewRegistry()
		node.srv.RegisterMetrics(node.metrics, "serve")
		h := node.srv.Handler()
		if opts.wrap != nil {
			h = opts.wrap(i, node, h)
		}
		ts := httptest.NewUnstartedServer(h)
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		node.ts = ts
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range c.nodes {
			node.ts.Close()
			node.drain(t)
			if node.store != nil {
				if err := node.store.Close(); err != nil {
					t.Errorf("close store %s: %v", node.url, err)
				}
			}
		}
	})
	return c
}

// postSweep submits a sweep to one node and returns status + body.
func postSweep(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read sweep body: %v", err)
	}
	return resp.StatusCode, data
}

// pickVictim returns the index of a non-gateway node owning at least one
// of the matrix's points (preferring the one owning most), plus the
// number of points it owns. Ownership follows the live coordinator ring,
// so the choice adapts to the randomly assigned listener ports.
func pickVictim(t *testing.T, c *cluster) (victim, owned int) {
	t.Helper()
	benches, schemes, opts := clusterMatrix(t)
	byNode := make(map[string]int)
	for _, sc := range schemes {
		for _, b := range benches {
			byNode[c.ownerOf(b, sc, opts)]++
		}
	}
	victim = -1
	for i, node := range c.nodes {
		if i == 0 {
			continue // the gateway executes its share in-process, not over HTTP
		}
		if byNode[node.url] > owned {
			victim, owned = i, byNode[node.url]
		}
	}
	if victim < 0 {
		t.Skip("ring placed every point on the gateway for these ports; nothing to intercept")
	}
	return victim, owned
}

// TestClusterByteStable runs the same sweep through a 3-node fleet
// gateway and a plain single-node server: the gathered document must be
// byte-identical, each point simulated exactly once fleet-wide, and a
// repeat sweep answered entirely from memo (no extra simulations).
func TestClusterByteStable(t *testing.T) {
	c := startCluster(t, 3, clusterOpts{})

	status, fleetBody := postSweep(t, c.gateway().url, clusterBody)
	if status != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", status, fleetBody)
	}
	if got := c.jobsRun(); got != clusterPoints {
		t.Errorf("fleet-wide jobs run = %d, want %d (each point exactly once)", got, clusterPoints)
	}

	if singleBody := singleNodeSweep(t, clusterBody); !bytes.Equal(fleetBody, singleBody) {
		t.Errorf("fleet document differs from single-node document:\nfleet:  %s\nsingle: %s", fleetBody, singleBody)
	}

	// Warm repeat through the gateway: byte-identical again, and the memo
	// layer means not one additional simulation anywhere in the fleet.
	status, again := postSweep(t, c.gateway().url, clusterBody)
	if status != http.StatusOK {
		t.Fatalf("warm fleet sweep status %d: %s", status, again)
	}
	if !bytes.Equal(fleetBody, again) {
		t.Errorf("warm fleet sweep not byte-identical to cold run")
	}
	if got := c.jobsRun(); got != clusterPoints {
		t.Errorf("fleet-wide jobs run after warm repeat = %d, want still %d", got, clusterPoints)
	}

	// CI consumes the gathered document with checkresults to pin matrix
	// coverage (full cross product, no duplicates, no extras).
	if path := os.Getenv("REGSIM_FLEET_ARTIFACT"); path != "" {
		if err := os.WriteFile(path, fleetBody, 0o644); err != nil {
			t.Fatalf("write fleet artifact: %v", err)
		}
		t.Logf("wrote fleet artifact to %s", path)
	}
}

// singleNodeSweep answers body on one standalone server — the reference
// a fleet document must match byte for byte (results are deterministic,
// so its own runner and workload cache do not matter).
func singleNodeSweep(t *testing.T, body string) []byte {
	t.Helper()
	single := serve.New(serve.Config{Backend: sim.NewRunner(2), MaxSyncPoints: 64})
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = single.Drain(ctx)
	}()
	status, data := postSweep(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("single-node sweep status %d: %s", status, data)
	}
	return data
}

// TestClusterThreadsByteStable sweeps the matrix at threads 2 and
// interleave 4 through a 3-node fleet gateway: the gathered document must
// be byte-identical to a single node's, with each point simulated exactly
// once fleet-wide. Leaves that dropped either option would run (and name)
// different points, which the merge rejects.
func TestClusterThreadsByteStable(t *testing.T) {
	c := startCluster(t, 3, clusterOpts{})
	benches, schemes, _ := clusterMatrix(t)
	opts := sim.Options{Insts: 2000, Threads: 2, Interleave: 4}
	remote := 0
	for _, sc := range schemes {
		for _, b := range benches {
			if c.ownerOf(b, sc, opts) != c.gateway().url {
				remote++
			}
		}
	}
	if remote == 0 {
		t.Skip("ring placed every point on the gateway for these ports; no sub-sweep to check")
	}

	status, fleetBody := postSweep(t, c.gateway().url, clusterMTBody)
	if status != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", status, fleetBody)
	}
	if got := c.jobsRun(); got != clusterPoints {
		t.Errorf("fleet-wide jobs run = %d, want %d (each point exactly once)", got, clusterPoints)
	}
	if singleBody := singleNodeSweep(t, clusterMTBody); !bytes.Equal(fleetBody, singleBody) {
		t.Errorf("fleet document differs from single-node document:\nfleet:  %s\nsingle: %s", fleetBody, singleBody)
	}
}

// TestClusterKilledNodeHedge kills a node mid-sweep (its sub-sweep POSTs
// hang forever, as a wedged or partitioned process would) after a cold
// run has populated every node's durable store shard. The repeat sweep
// must still complete byte-identically: the straggler deadline hedges the
// dead node's partitions to the next ring node, which resolves every
// store-resident point over GET /v1/store/{key} instead of re-simulating.
func TestClusterKilledNodeHedge(t *testing.T) {
	var (
		victimIdx atomic.Int32 // -1 until armed
		held      atomic.Int32 // sub-sweep POSTs currently hanging
	)
	victimIdx.Store(-1)
	// No explicit hedgeAfter: the cold run feeds the latency histogram,
	// and the hedged re-run must fire off the learned deadline (p99 x
	// multiplier x partition size), which scales with the machine.
	c := startCluster(t, 3, clusterOpts{
		stores: true,
		wrap: func(i int, node *clusterNode, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if int32(i) == victimIdx.Load() && r.Method == http.MethodPost && r.URL.Path == "/v1/sweep" {
					// Hold the request until the coordinator gives up on
					// us. The body must be drained first: the HTTP server
					// only watches for client disconnect (cancelling
					// r.Context) once the request body hits EOF.
					_, _ = io.Copy(io.Discard, r.Body)
					held.Add(1)
					<-r.Context().Done()
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})

	// Cold run: populates each node's store shard with its owned points.
	status, cold := postSweep(t, c.gateway().url, clusterBody)
	if status != http.StatusOK {
		t.Fatalf("cold sweep status %d: %s", status, cold)
	}
	if got := c.jobsRun(); got != clusterPoints {
		t.Fatalf("cold run jobs = %d, want %d", got, clusterPoints)
	}

	// ResetStats both waits for every cold-run store append to land (the
	// hedge path depends on the victim's shard being durable) and zeroes
	// the ledger so "no re-simulation" below is an exact == 0 assertion.
	c.resetStats()
	victim, owned := pickVictim(t, c)
	hedgesBefore, winsBefore := c.fleetCounter("hedges"), c.fleetCounter("hedge_wins")
	resolvedBefore := c.fleetCounter("points_store_resolved")
	victimIdx.Store(int32(victim))
	t.Logf("victim %s owns %d/%d points", c.nodes[victim].url, owned, clusterPoints)

	status, hedged := postSweep(t, c.gateway().url, clusterBody)
	if status != http.StatusOK {
		t.Fatalf("hedged sweep status %d: %s", status, hedged)
	}
	victimIdx.Store(-1)
	if !bytes.Equal(cold, hedged) {
		t.Errorf("hedged sweep not byte-identical to cold run:\ncold:   %s\nhedged: %s", cold, hedged)
	}
	if got := c.jobsRun(); got != 0 {
		t.Errorf("jobs run during hedged sweep = %d, want 0 (store shards must prevent re-simulation)", got)
	}
	if c.fleetCounter("hedges") == hedgesBefore {
		t.Errorf("no hedges launched (%d before and after)", hedgesBefore)
	}
	if c.fleetCounter("hedge_wins") == winsBefore {
		t.Errorf("no hedge won the dead node's partition (%d wins before and after)", winsBefore)
	}
	if resolved := c.fleetCounter("points_store_resolved") - resolvedBefore; resolved < uint64(owned) {
		t.Errorf("points resolved from peer store = %d, want >= %d (the victim's share)", resolved, owned)
	}
	if h := held.Load(); h == 0 {
		t.Error("victim never received a held sub-sweep POST")
	}
}

// TestClusterDrainRedispatch races a graceful drain against an in-flight
// scattered sweep: the victim starts draining the moment the gateway's
// first sub-sweep POST arrives, so that partition is shed with 503 — and
// the coordinator must re-dispatch it to the next ring node rather than
// lose or duplicate it.
func TestClusterDrainRedispatch(t *testing.T) {
	var (
		victimIdx atomic.Int32
		drainHit  atomic.Int32
		nodesRef  atomic.Pointer[cluster]
	)
	victimIdx.Store(-1)
	var drainTrigger sync.Once
	c := startCluster(t, 3, clusterOpts{
		wrap: func(i int, node *clusterNode, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if int32(i) == victimIdx.Load() && r.Method == http.MethodPost && r.URL.Path == "/v1/sweep" {
					// Flip the node into draining before admission sees
					// this request. Drain waits for in-flight sweeps and
					// closes the backend, so route it through the node's
					// once-guarded drain.
					drainTrigger.Do(func() {
						drainHit.Add(1)
						if cl := nodesRef.Load(); cl != nil {
							cl.nodes[i].drain(t)
						}
					})
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	nodesRef.Store(c)

	victim, owned := pickVictim(t, c)
	victimIdx.Store(int32(victim))
	t.Logf("victim %s owns %d/%d points", c.nodes[victim].url, owned, clusterPoints)

	status, body := postSweep(t, c.gateway().url, clusterBody)
	if status != http.StatusOK {
		t.Fatalf("sweep racing drain: status %d: %s", status, body)
	}
	var f sim.ResultsFile
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatalf("parse gathered document: %v", err)
	}
	if len(f.Runs) != clusterPoints {
		t.Fatalf("gathered %d runs, want %d", len(f.Runs), clusterPoints)
	}
	seen := make(map[string]bool, len(f.Runs))
	for _, r := range f.Runs {
		id := sim.RunIdentity(r)
		if seen[id] {
			t.Errorf("duplicate point %s/%s in gathered document", r.Scheme.Name, r.Bench)
		}
		seen[id] = true
	}
	if drainHit.Load() == 0 {
		t.Fatal("victim never saw a sub-sweep POST; drain race not exercised")
	}
	if c.fleetCounter("redispatches") == 0 {
		t.Error("no re-dispatches recorded racing a drain")
	}
}

// TestClusterStoreEndpointServesShard pins the peer-lookup wire format:
// after a sweep, the owner of a point must serve its stored payload at
// GET /v1/store/{key}, decodable into the exact run record the gathered
// document carries.
func TestClusterStoreEndpointServesShard(t *testing.T) {
	c := startCluster(t, 3, clusterOpts{stores: true})
	status, body := postSweep(t, c.gateway().url, clusterBody)
	if status != http.StatusOK {
		t.Fatalf("sweep status %d: %s", status, body)
	}
	c.resetStats() // fence: wait for the asynchronous store appends
	benches, schemes, opts := clusterMatrix(t)
	checked := 0
	for _, sc := range schemes {
		for _, b := range benches {
			owner := c.ownerOf(b, sc, opts)
			key := sim.FingerprintPoint(b, sc, opts)
			resp, err := http.Get(fmt.Sprintf("%s/v1/store/%s", owner, key.String()))
			if err != nil {
				t.Fatalf("GET store shard: %v", err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("read shard payload: %v", err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("owner %s has no shard entry for %s/%s: status %d", owner, sc.Name, b, resp.StatusCode)
				continue
			}
			rec, _, err := sim.DecodeStoredPayload(data)
			if err != nil {
				t.Fatalf("decode shard payload for %s/%s: %v", sc.Name, b, err)
			}
			if rec.Bench != b || rec.Scheme.Name != sc.Name {
				t.Errorf("shard payload identity %s/%s, want %s/%s", rec.Scheme.Name, rec.Bench, sc.Name, b)
			}
			checked++
		}
	}
	if checked != clusterPoints {
		t.Errorf("resolved %d/%d points from owner shards", checked, clusterPoints)
	}
}
