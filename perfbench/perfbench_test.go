package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"regcache/internal/sim"
)

func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	return out
}

func sameBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestRequestsDependOnlyOnSeed(t *testing.T) {
	gens := map[string]func(seed int64) [][]byte{
		"sweep-cold": func(seed int64) [][]byte { return bodies(sweepColdRequests(seed)) },
		"sweep-warm": func(seed int64) [][]byte {
			return bodies(sweepWarmRequests(seed, storedSweeps(seed), 50))
		},
		"explore-mt": func(seed int64) [][]byte {
			reqs, err := exploreRequests(seed, 3*exploreRound)
			if err != nil {
				t.Fatal(err)
			}
			return bodies(reqs)
		},
	}
	for name, gen := range gens {
		if !sameBodies(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated different request bytes twice", name)
		}
		if sameBodies(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", name)
		}
	}
}

func TestSweepColdNeverRepeatsAPoint(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		reqs := sweepColdRequests(seed)
		if want := len(schemePool()) * len(sim.Benchmarks()) / 2; len(reqs) != want {
			t.Fatalf("seed %d: %d requests, want %d (every point of the space once)", seed, len(reqs), want)
		}
		seen := make(map[string]bool)
		for _, r := range reqs {
			var sw struct {
				Benches []string `json:"benches"`
				Schemes []string `json:"schemes"`
			}
			if err := json.Unmarshal(r.body, &sw); err != nil {
				t.Fatal(err)
			}
			if len(sw.Schemes) != 1 || len(sw.Benches) != 2 || heavyT1[sw.Benches[0]] == heavyT1[sw.Benches[1]] {
				t.Fatalf("request %s: %v x %v, want 1 scheme x a heavy and a light benchmark", r.id, sw.Schemes, sw.Benches)
			}
			sc, err := sim.ParseSchemeSpec(sw.Schemes[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range sw.Benches {
				key := sc.Name + "/" + b
				if seen[key] {
					t.Fatalf("seed %d: point %s repeated (request %s)", seed, key, r.id)
				}
				seen[key] = true
			}
		}
	}
}

func TestSchemePoolIsTheEvaluationSpace(t *testing.T) {
	names := make(map[string]bool)
	for _, spec := range schemePool() {
		sc, err := sim.ParseSchemeSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if names[sc.Name] {
			t.Fatalf("%s: scheme %s listed twice", spec, sc.Name)
		}
		names[sc.Name] = true
		if sc.TwoLevel.L1Entries != 0 && sc.TwoLevel.L1Entries < twoLevelMinL1 {
			t.Errorf("%s: L1 below the workable minimum %d", spec, twoLevelMinL1)
		}
	}
	fams := make(map[string]int)
	for _, spec := range schemePool() {
		sc, _ := sim.ParseSchemeSpec(spec)
		fams[family(sc)]++
	}
	for _, f := range families {
		if fams[f] == 0 {
			t.Errorf("family %s missing from the pool", f)
		}
	}
}

func TestEveryRunHoldsEveryFamily(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		fams := make(map[string]bool)
		for _, r := range sweepColdRequests(seed)[:len(families)] {
			sc, err := sim.ParseSchemeSpec(r.schemes[0])
			if err != nil {
				t.Fatal(err)
			}
			fams[family(sc)] = true
		}
		if len(fams) != len(families) {
			t.Errorf("seed %d: the first %d requests cover families %v, want all of %v", seed, len(families), fams, families)
		}
	}
}

func TestStoredSweepsShareNoPoint(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range storedSweeps(3) {
		if r.points != warmSchemes*len(sim.Benchmarks()) {
			t.Errorf("stored sweep %d has %d points", r.stored, r.points)
		}
		for _, spec := range r.schemes {
			if seen[spec] {
				t.Errorf("scheme %s in two stored sweeps", spec)
			}
			seen[spec] = true
		}
	}
}

func TestExploreShape(t *testing.T) {
	reqs, err := exploreRequests(5, 2*exploreRound)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := explorePlan(exploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 || plan[0].Candidates != 18 || plan[0].Insts != 25_000 || plan[3].Insts != sim.DefaultInsts {
		t.Fatalf("plan %+v, want 18 candidates over 4 rungs from 25k to 200k", plan)
	}
	for i, r := range reqs {
		if r.points != 70 {
			t.Fatalf("exploration %d: %d evaluations, want 70", i, r.points)
		}
		if i%exploreRound > 0 && r.benches[0] != reqs[i-1].benches[0] {
			t.Errorf("exploration %d does not share its light benchmark with the one before", i)
		}
		if heavyT4[r.benches[0]] || !heavyT4[r.benches[1]] {
			t.Errorf("exploration %d pairs %v, want a light and a heavy benchmark", i, r.benches)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},
		{99, 90, 0, false},
		{40, 75, 30, true},
		{39, 75, 0, false},
		{20, 50, 10, true},
		{19, 50, 0, false},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("p%.0f of %d samples = %v, %v; want %v, %v", c.p, c.n, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  float64
	}{
		{"empty", nil, 0},
		{"disjoint", []span{{0, 1}, {5, 7}, {2, 3}}, 4},
		{"overlapping", []span{{0, 4}, {2, 6}, {5, 8}}, 8},
		{"nested", []span{{0, 10}, {2, 3}, {4, 9}}, 10},
		{"touching", []span{{0, 2}, {2, 3}}, 3},
		{"mixed", []span{{10, 12}, {0, 5}, {1, 2}, {4, 6}, {11, 15}}, 11},
	}
	for _, c := range cases {
		if got := unionLength(c.spans); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: union %v, want %v", c.name, got, c.want)
		}
	}
	clipped := clip([]span{{0, 4}, {6, 8}, {9, 12}, {20, 30}}, 3, 10)
	if got := unionLength(clipped); got != 1+2+1 {
		t.Errorf("clipped union %v, want 4 (%v)", got, clipped)
	}
}

// TestChecksAgainstDaemon serves a sweep and an exploration at a tiny
// budget through the same stack the benchmark measures, and checks that
// the output checks accept the real documents and reject altered ones.
func TestChecksAgainstDaemon(t *testing.T) {
	rs, err := openStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	tr := newTracer()
	d, err := newDaemon(sim.NewWorkloadCache(), rs, tr)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := newTransport()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tp.close(); err != nil {
			t.Error(err)
		}
	}()
	tp.use(d)
	b := &bench{tp: tp}

	sw := request{
		id: "t-sweep", path: "/v1/sweep", stored: -1, budget: 2000,
		schemes: []string{"use:16x2:filtered", "port:32x2:filtered:p1"},
		benches: []string{"gzip", "mcf"},
	}
	sw.body = sweepBody(sw.schemes, sw.benches, sw.budget)
	var buf bytes.Buffer
	tr.on.Store(true)
	err = b.send(&sw, &buf)
	tr.on.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweep(&sw, buf.Bytes()); err != nil {
		t.Fatalf("real sweep rejected: %v", err)
	}
	// The traced request left one handler span and one span per point,
	// each tagged with the request's ID and inside its handler span.
	if len(tr.http) != 1 || tr.http[0].Request != sw.id || tr.http[0].Bytes != buf.Len() {
		t.Fatalf("handler spans %+v", tr.http)
	}
	if len(tr.points) != 4 {
		t.Fatalf("%d point spans, want 4", len(tr.points))
	}
	for _, p := range tr.points {
		if p.Request != sw.id || p.Outcome != "simulated" || p.Insts != sw.budget {
			t.Errorf("point span %+v", p)
		}
		if p.Start < tr.http[0].Start || p.End > tr.http[0].End {
			t.Errorf("point span [%v, %v] outside its request [%v, %v]", p.Start, p.End, tr.http[0].Start, tr.http[0].End)
		}
	}
	short := sw
	short.benches = []string{"gzip"}
	if checkSweep(&short, buf.Bytes()) == nil {
		t.Error("a document with unrequested runs passed")
	}
	greedy := sw
	greedy.budget = 1 << 30
	if checkSweep(&greedy, buf.Bytes()) == nil {
		t.Error("runs short of the budget passed")
	}

	spec := exploreSpec()
	spec.Insts, spec.MinInsts = 4000, 500
	plan, err := explorePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := request{id: "t-explore", path: "/v1/explore", stored: -1, benches: []string{"gzip", "mcf"}}
	ex.body, _ = json.Marshal(map[string]any{
		"space": spec.Space, "strategy": spec.Strategy, "insts": spec.Insts,
		"min_insts": spec.MinInsts, "eta": spec.Eta, "benches": ex.benches,
	})
	if err := b.send(&ex, &buf); err != nil {
		t.Fatal(err)
	}
	if err := checkExplore(&ex, buf.Bytes(), plan); err != nil {
		t.Fatalf("real exploration rejected: %v", err)
	}
	if checkExplore(&ex, buf.Bytes(), plan[:3]) == nil {
		t.Error("an exploration whose rungs differ from the plan passed")
	}
	if err := d.drain(); err != nil {
		t.Fatal(err)
	}
	if st := d.runner.Stats(); st.StoreWrites != st.JobsRun || st.JobsRun == 0 {
		t.Errorf("after drain: %d store writes for %d simulated points", st.StoreWrites, st.JobsRun)
	}
}
