package main

// Request generation. Every request a run sends is derived from --seed
// before the run starts: the same seed gives byte-identical request
// bodies, and the daemon sees nothing but those bodies.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"regcache/internal/explore"
	"regcache/internal/serve"
	"regcache/internal/sim"
)

// request is one logical client request and what it asked for.
type request struct {
	id     string // X-Request-Id of the request (explore polls append a suffix)
	path   string // /v1/sweep or /v1/explore
	body   []byte
	points int    // evaluated points: schemes × benches, or every rung evaluation
	insts  uint64 // instruction budget summed over the evaluated points

	// The sweep asked for, for the output checks (empty for explorations).
	schemes []string
	benches []string
	budget  uint64
	stored  int // sweep-warm: which stored sweep this replays; -1 otherwise
}

const (
	// warmBudget is the per-point budget of the stored sweeps sweep-warm
	// replays. A replay's cost does not depend on it (a stored result has
	// the same shape at any budget), so it is small to keep the untimed
	// fill short.
	warmBudget = 10_000
	// warmStored is how many figure-sized sweeps the store holds.
	warmStored = 4
	// warmSchemes is the scheme count of one stored sweep (× 12 benches).
	warmSchemes = 4
	// exploreRound is the length of one exploration round, one per heavy
	// benchmark: a fresh daemon and store at the start of each round keep
	// every round's memo-reuse pattern the same however many explorations
	// a run completes.
	exploreRound = 6
)

// cacheSizes are the register-cache capacities of the paper's Figures 6
// and 11 (internal/experiments fig6Sizes and fig11Sizes).
var cacheSizes = []int{16, 24, 32, 48, 64, 96, 128}

// twoLevelMinL1 is internal/experiments' smallest workable two-level L1:
// the architected registers plus eight. Smaller L1 files pass scheme
// validation but cannot rename (see BENCHMARK.json's notes).
const twoLevelMinL1 = 72

// schemePool returns the paper's evaluation space as compact scheme specs
// (sim.ParseSchemeSpec grammar), each design point once.
func schemePool() []string {
	var out []string
	for _, kind := range []string{"use", "lru", "nb"} {
		for _, e := range cacheSizes {
			for _, w := range []int{1, 2, 4} {
				for _, ix := range []string{"preg", "rr", "min", "filtered"} {
					out = append(out, fmt.Sprintf("%s:%dx%d:%s", kind, e, w, ix))
				}
			}
		}
	}
	// Figure 12: backing-file latency behind the 64-entry 2-way caches.
	for _, base := range []string{"use:64x2:filtered", "lru:64x2:rr", "nb:64x2:rr"} {
		for lat := 1; lat <= 6; lat++ {
			out = append(out, fmt.Sprintf("%s:b%d", base, lat))
		}
	}
	// The oracle extension: perfect degree-of-use knowledge.
	for _, e := range cacheSizes {
		for _, w := range []int{2, 4} {
			out = append(out, fmt.Sprintf("use:%dx%d:filtered:oracle", e, w))
		}
	}
	// The port-filtering family.
	for _, e := range cacheSizes {
		for _, w := range []int{2, 4} {
			for _, p := range []int{1, 2, 4} {
				out = append(out, fmt.Sprintf("port:%dx%d:filtered:p%d", e, w, p))
			}
		}
	}
	for lat := 1; lat <= 3; lat++ {
		out = append(out, fmt.Sprintf("mono:%d", lat))
	}
	// Two-level files as Figure 11 builds them: L1 = cache size + 32.
	// Figure 12's two-level L2 latencies are left out: the scheme name
	// does not carry the L2 latency, so twolevel:96:3 and twolevel:96
	// would report runs under one name (see README.md).
	for _, e := range cacheSizes {
		if e+32 >= twoLevelMinL1 {
			out = append(out, fmt.Sprintf("twolevel:%d", e+32))
		}
	}
	return out
}

// stratified returns the pool in a seed-drawn order in which every
// prefix holds each stratum (scheme family × cache size) close to its
// share of the pool, so a run's scheme mix does not depend on the seed:
// each stratum is shuffled, its j-th of n members placed at (j+u)/n with
// u uniform in [0, 1), and the pool sorted by place. The first scheme of
// each family then moves to the front, so even the three-member mono
// family is in every run.
func stratified(rng *rand.Rand, pool []string) []string {
	groups := make(map[string][]string)
	fam := make(map[string]string, len(pool))
	var keys []string
	for _, spec := range pool {
		sc, err := sim.ParseSchemeSpec(spec)
		if err != nil {
			panic(err) // the pool is static and its specs are tested
		}
		fam[spec] = family(sc)
		k := fam[spec] + "/" + strconv.Itoa(sc.Cache.Entries)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], spec)
	}
	type placed struct {
		spec string
		at   float64
	}
	all := make([]placed, 0, len(pool))
	for _, k := range keys {
		g := groups[k]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		for j, spec := range g {
			all = append(all, placed{spec, (float64(j) + rng.Float64()) / float64(len(g))})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].at < all[b].at })
	var front, rest []string
	seen := make(map[string]bool)
	for _, p := range all {
		if f := fam[p.spec]; !seen[f] {
			seen[f] = true
			front = append(front, p.spec)
		} else {
			rest = append(rest, p.spec)
		}
	}
	return append(front, rest...)
}

// Benchmark cost classes. A request's time is set by its slowest
// point, and the suite's profiles differ up to 14× in simulated cycles
// per instruction, so random pairs would make a run's work depend on
// the seed. Each request instead pairs one heavy profile (the six with
// the lowest IPC on the workload's machine, measured with the default
// scheme at T=1 and with 32x2 two-port caches at T=4) with one light one.
var (
	heavyT1 = classSet("mcf", "vpr", "parser", "gcc", "vortex", "perlbmk")
	heavyT4 = classSet("mcf", "vpr", "gap", "twolf", "perlbmk", "gcc")
)

func classSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// split returns the suite's heavy and light profiles, in suite order.
func split(heavySet map[string]bool) (heavy, light []string) {
	for _, b := range sim.Benchmarks() {
		if heavySet[b] {
			heavy = append(heavy, b)
		} else {
			light = append(light, b)
		}
	}
	return heavy, light
}

func shuffled(rng *rand.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// matchings returns n (heavy, light) benchmark pairs drawn as consecutive
// random perfect matchings of the suite: every six pairs cover each
// profile once.
func matchings(rng *rand.Rand, heavySet map[string]bool, n int) [][2]string {
	heavy, light := split(heavySet)
	out := make([][2]string, 0, n)
	for len(out) < n {
		h, l := shuffled(rng, heavy), shuffled(rng, light)
		for i := 0; i < len(h) && len(out) < n; i++ {
			out = append(out, [2]string{h[i], l[i]})
		}
	}
	return out
}

// sweepBody encodes a sweep request; budget 0 leaves the daemon default.
func sweepBody(schemes, benches []string, budget uint64) []byte {
	b, err := json.Marshal(serve.SweepRequest{Benches: benches, Schemes: schemes, Insts: budget})
	if err != nil {
		panic(err) // plain value types: cannot fail
	}
	return b
}

// sweepColdRequests returns every request sweep-cold can send: one scheme
// × a heavy and a light benchmark each, at the default budget, with no
// (scheme, benchmark) point repeated. Schemes come from the stratified
// pool in turn; benchmark pairs from consecutive perfect matchings (so
// every six requests cover the suite once), replaced by a heavy and a
// light benchmark the scheme has not run yet once the pool wraps.
func sweepColdRequests(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	pool := stratified(rng, schemePool())
	heavy, light := split(heavyT1)
	n := len(pool) * len(heavy)
	pairs := matchings(rng, heavyT1, n)
	used := make(map[string]map[string]bool, len(pool))
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		sc := pool[i%len(pool)]
		if used[sc] == nil {
			used[sc] = make(map[string]bool)
		}
		pair := pairs[i]
		if used[sc][pair[0]] || used[sc][pair[1]] {
			pair = [2]string{unused(rng, heavy, used[sc]), unused(rng, light, used[sc])}
		}
		used[sc][pair[0]], used[sc][pair[1]] = true, true
		bs := []string{pair[0], pair[1]}
		if rng.Intn(2) == 0 {
			bs[0], bs[1] = bs[1], bs[0]
		}
		out = append(out, request{
			id:      fmt.Sprintf("cold-%05d", i),
			path:    "/v1/sweep",
			body:    sweepBody([]string{sc}, bs, 0),
			points:  2,
			insts:   2 * sim.DefaultInsts,
			schemes: []string{sc},
			benches: bs,
			budget:  sim.DefaultInsts,
			stored:  -1,
		})
	}
	return out
}

// unused returns a random member of class not in used.
func unused(rng *rand.Rand, class []string, used map[string]bool) string {
	var free []string
	for _, b := range class {
		if !used[b] {
			free = append(free, b)
		}
	}
	return free[rng.Intn(len(free))]
}

// storedSweeps returns the figure-sized sweeps sweep-warm fills its store
// with: warmSchemes distinct schemes × all 12 benchmarks each, no scheme
// shared between sweeps (so every replayed point is a store hit, never a
// memo hit within a pass).
func storedSweeps(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	pool := stratified(rng, schemePool())
	benches := sim.Benchmarks()
	out := make([]request, warmStored)
	for k := range out {
		schemes := pool[k*warmSchemes : (k+1)*warmSchemes]
		out[k] = request{
			path:    "/v1/sweep",
			body:    sweepBody(schemes, benches, warmBudget),
			points:  len(schemes) * len(benches),
			insts:   uint64(len(schemes)*len(benches)) * warmBudget,
			schemes: schemes,
			benches: benches,
			budget:  warmBudget,
			stored:  k,
		}
	}
	return out
}

// sweepWarmRequests returns the replay sequence: passes over every stored
// sweep, each pass in its own seed-shuffled order.
func sweepWarmRequests(seed int64, stored []request, passes int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]request, 0, passes*len(stored))
	for p := 0; p < passes; p++ {
		for _, k := range rng.Perm(len(stored)) {
			r := stored[k]
			r.id = fmt.Sprintf("warm-%05d", len(out))
			out = append(out, r)
		}
	}
	return out
}

// exploreSpec is explore-mt's search: entries {16,32,64} × 2 ways ×
// ports {1,2,4} × threads {2,4}, successive halving with eta 2 from 25k
// to 200k instructions — 18 candidates and 4 rungs.
func exploreSpec() explore.Spec {
	return explore.Spec{
		Space: explore.Space{
			Entries: explore.Axis{Values: []int{16, 32, 64}},
			Ways:    explore.Axis{Values: []int{2}},
			Ports:   &explore.Axis{Values: []int{1, 2, 4}},
			Threads: &explore.Axis{Values: []int{2, 4}},
		},
		Strategy: explore.StrategyHalving,
		Insts:    sim.DefaultInsts,
		MinInsts: 25_000,
		Eta:      2,
	}
}

// explorePlan returns the spec's rung schedule.
func explorePlan(spec explore.Spec) ([]explore.RungRecord, error) {
	spec = spec.WithDefaults()
	cands, _, err := spec.Candidates()
	if err != nil {
		return nil, err
	}
	return spec.Plan(len(cands)), nil
}

// exploreRequests returns n explorations in rounds of exploreRound: a
// round pairs one seed-drawn light benchmark with each heavy one in turn
// (heavy classes on the T=4 machine), so every exploration after the
// first of a round reuses the light benchmark's memoized first-rung
// points and simulates one heavy benchmark afresh.
func exploreRequests(seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xe1))
	spec := exploreSpec()
	plan, err := explorePlan(spec)
	if err != nil {
		return nil, err
	}
	heavy, light := split(heavyT4)
	var anchor string
	var order []string
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		j := i % exploreRound
		if j == 0 {
			anchor, order = light[rng.Intn(len(light))], shuffled(rng, heavy)
		}
		bs := []string{anchor, order[j]}
		body, err := json.Marshal(serve.ExploreRequest{Spec: spec, Benches: bs})
		if err != nil {
			return nil, err
		}
		var insts uint64
		for _, r := range plan {
			insts += uint64(r.Candidates*len(bs)) * r.Insts
		}
		out = append(out, request{
			id:      fmt.Sprintf("explore-%04d", i),
			path:    "/v1/explore",
			body:    body,
			points:  explore.TotalEvals(plan, len(bs)),
			insts:   insts,
			benches: bs,
			stored:  -1,
		})
	}
	return out, nil
}

// warmupRequest is the untimed first request of sweep-cold and
// explore-mt: one point at a budget no measured request uses, so it warms
// the connection and the request path without pre-computing a measured
// point.
func warmupRequest() request {
	return request{
		id:      "warmup",
		path:    "/v1/sweep",
		body:    sweepBody([]string{"mono:3"}, []string{"gzip"}, 20_000),
		points:  1,
		insts:   20_000,
		schemes: []string{"mono:3"},
		benches: []string{"gzip"},
		budget:  20_000,
		stored:  -1,
	}
}
