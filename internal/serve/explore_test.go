package serve

// End-to-end tests of POST /v1/explore: sync grid search over the real
// runner, async halving with job polling, the replay guarantees (warm
// memo and warm store re-submissions are byte-identical and simulate
// nothing), wire validation (400/413 before admission), and failure
// hygiene (an erroring candidate fails the job drain-clean).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"regcache/internal/explore"
	"regcache/internal/obs"
	"regcache/internal/pipeline"
	"regcache/internal/sim"
	"regcache/internal/store"
)

func postExplore(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/explore: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

// exploreBody is an 8-candidate halving search small enough for the sync
// path at the default MaxSyncPoints.
const exploreBody = `{
	"benches": ["gzip"],
	"space": {
		"entries": {"values": [8, 16, 32, 64]},
		"ways": {"values": [1]},
		"index": ["preg", "filtered"]
	},
	"strategy": "halving",
	"insts": 4000,
	"min_insts": 1000
}`

// exploreEvals is the schedule size of exploreBody: rungs of 8, 4, and 2
// candidates (budgets 1000, 2000, 4000) over one benchmark.
const exploreEvals = 8 + 4 + 2

// TestExploreSyncHalving: the sync path returns a validated document, and
// an identical re-submission is answered entirely from the runner memo —
// zero new simulations, byte-identical body (the warm-memo half of the
// determinism/replay satellite).
func TestExploreSyncHalving(t *testing.T) {
	runner := sim.NewRunnerWith(2, sim.NewWorkloadCache())
	srv := New(Config{Backend: runner})
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg, "serve")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer runner.Close()

	resp, cold := postExplore(t, ts, exploreBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, cold)
	}
	var res explore.Result
	if err := json.Unmarshal(cold, &res); err != nil {
		t.Fatalf("parse result: %v", err)
	}
	if err := explore.ValidateResult(&res); err != nil {
		t.Fatalf("document fails validation: %v\n%s", err, cold)
	}
	if res.Generator != "regsimd" || res.Strategy != "halving" {
		t.Errorf("generator %q strategy %q", res.Generator, res.Strategy)
	}
	if len(res.Points) != 8 || len(res.Rungs) != 3 {
		t.Errorf("%d points, %d rungs; want 8 and 3", len(res.Points), len(res.Rungs))
	}
	if len(res.Frontier) == 0 {
		t.Error("empty frontier")
	}
	jobsAfterCold := runner.Stats().JobsRun
	if jobsAfterCold == 0 {
		t.Fatal("cold exploration simulated nothing")
	}

	resp, warm := postExplore(t, ts, exploreBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, warm)
	}
	if string(warm) != string(cold) {
		t.Error("warm re-submission body differs from cold")
	}
	if d := runner.Stats().JobsRun - jobsAfterCold; d != 0 {
		t.Errorf("warm re-submission ran %d simulations, want 0", d)
	}

	// The explore counters moved.
	snap := reg.Snapshot()
	if snap["serve.explore.accepted"] != uint64(2) {
		t.Errorf("explore.accepted = %v, want 2", snap["serve.explore.accepted"])
	}
	if snap["serve.explore.candidates"] != uint64(16) {
		t.Errorf("explore.candidates = %v, want 16", snap["serve.explore.candidates"])
	}
}

// TestExploreAsyncJob: async explorations run the job machinery —
// 202 + job ID, long-poll to settlement, results document fetchable and
// identical to a fresh submission's.
func TestExploreAsyncJob(t *testing.T) {
	runner := sim.NewRunnerWith(2, sim.NewWorkloadCache())
	srv := New(Config{Backend: runner})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer runner.Close()

	async := strings.Replace(exploreBody, `"benches"`, `"async": true, "benches"`, 1)
	resp, data := postExplore(t, ts, async)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != "explore" || st.Status != "running" || st.Points != exploreEvals {
		t.Fatalf("job status %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for st.Status == "running" {
		if time.Now().After(deadline) {
			t.Fatal("job did not settle")
		}
		resp, data = get(t, ts.URL+"/v1/jobs/"+st.ID+"?wait=5s")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.Status != "done" {
		t.Fatalf("job settled as %+v", st)
	}
	resp, asyncDoc := get(t, ts.URL+"/v1/jobs/"+st.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp.StatusCode, asyncDoc)
	}
	var res explore.Result
	if err := json.Unmarshal(asyncDoc, &res); err != nil {
		t.Fatal(err)
	}
	if err := explore.ValidateResult(&res); err != nil {
		t.Fatalf("async document fails validation: %v", err)
	}

	// A sync submission of the same search returns the same bytes.
	resp, syncDoc := postExplore(t, ts, exploreBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d: %s", resp.StatusCode, syncDoc)
	}
	if string(syncDoc) != string(asyncDoc) {
		t.Error("async and sync documents differ")
	}
}

// TestExploreWarmStoreReplay is the cold-vs-warm-store half of the
// determinism/replay satellite: a fresh process over the same durable
// store reproduces the document byte-identically with JobsRun == 0 and
// every candidate evaluation answered by the store.
func TestExploreWarmStoreReplay(t *testing.T) {
	dir := t.TempDir()
	wc := sim.NewWorkloadCache()

	run := func() ([]byte, sim.RunnerStats) {
		rs, err := sim.OpenResultStore(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runner := sim.NewRunnerWith(2, wc)
		if err := runner.UseStore(rs); err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Backend: runner})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, body := postExplore(t, ts, exploreBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		stats := runner.Stats()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
		return body, stats
	}

	cold, coldStats := run()
	warm, warmStats := run()
	if string(cold) != string(warm) {
		t.Error("cold and warm documents differ")
	}
	if coldStats.JobsRun != exploreEvals {
		t.Errorf("cold process ran %d jobs, want %d", coldStats.JobsRun, exploreEvals)
	}
	if warmStats.JobsRun != 0 {
		t.Errorf("warm process ran %d jobs, want 0", warmStats.JobsRun)
	}
	if warmStats.StoreHits != exploreEvals {
		t.Errorf("warm process had %d store hits, want %d (one per evaluation)", warmStats.StoreHits, exploreEvals)
	}
}

// TestExploreValidation: malformed requests answer 400, never-admissible
// ones 413, all before any admission or simulation. A repeated benchmark
// would admit the exploration at a multiple of its real point count; its
// 400 names the field.
func TestExploreValidation(t *testing.T) {
	fb := &fakeBackend{}
	srv := New(Config{Backend: fb, MaxQueuedPoints: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
		field  string // the error must name it, when set
	}{
		{"not json", `nope`, http.StatusBadRequest, ""},
		{"no benches", `{"space":{"entries":{"values":[16]},"ways":{"values":[1]}}}`, http.StatusBadRequest, ""},
		{"unknown bench", `{"benches":["quake"],"space":{"entries":{"values":[16]},"ways":{"values":[1]}}}`, http.StatusBadRequest, ""},
		{"repeated bench", `{"benches":["gzip","mcf","gzip"],"space":{"entries":{"values":[16]},"ways":{"values":[1]}}}`, http.StatusBadRequest, "benches"},
		{"no axes", `{"benches":["gzip"],"space":{}}`, http.StatusBadRequest, ""},
		{"inverted range", `{"benches":["gzip"],"space":{"entries":{"min":64,"max":16,"step":8},"ways":{"values":[1]}}}`, http.StatusBadRequest, ""},
		{"zero step", `{"benches":["gzip"],"space":{"entries":{"min":8,"max":64},"ways":{"values":[1]}}}`, http.StatusBadRequest, ""},
		{"bad strategy", `{"benches":["gzip"],"strategy":"anneal","space":{"entries":{"values":[16]},"ways":{"values":[1]}}}`, http.StatusBadRequest, ""},
		{"bad eta", `{"benches":["gzip"],"strategy":"halving","eta":1,"space":{"entries":{"values":[16]},"ways":{"values":[1]}}}`, http.StatusBadRequest, ""},
		{"all invalid", `{"benches":["gzip"],"space":{"entries":{"values":[16]},"ways":{"values":[5]}}}`, http.StatusBadRequest, ""},
		{"space too large", `{"benches":["gzip"],"space":{"entries":{"min":1,"max":64,"step":1},"ways":{"min":0,"max":63,"step":1},"kinds":["use","lru"]}}`, http.StatusRequestEntityTooLarge, ""},
		{"over capacity", `{"benches":["gzip","mcf","gcc"],"space":{"entries":{"values":[16,32,64]},"ways":{"values":[1]}}}`, http.StatusRequestEntityTooLarge, ""},
	}
	for _, tc := range cases {
		resp, data := postExplore(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, data)
		}
		if !strings.Contains(string(data), tc.field) {
			t.Errorf("%s: error %s does not name %q", tc.name, data, tc.field)
		}
	}
	if fb.Stats().JobsRun != 0 {
		t.Errorf("rejected requests reached the backend (%d runs)", fb.Stats().JobsRun)
	}
	if srv.QueuedPoints() != 0 {
		t.Errorf("rejected requests leaked %d queued points", srv.QueuedPoints())
	}
}

// TestExploreShedsLikeSweeps: an exploration that no longer fits beside
// an async sweep's held points is shed with 429, and one sent after Drain
// with 503. Each shed carries Retry-After, closes its admission span with
// the shed outcome, counts in its rejected counter, leaves a shed flight
// event under the request ID, and leaks no queued points.
func TestExploreShedsLikeSweeps(t *testing.T) {
	be := newBlockingBackend()
	defer be.release()
	fr := obs.NewFlightRecorder(16, 32)
	srv := New(Config{Backend: be, MaxQueuedPoints: exploreEvals, Flight: fr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	shed := func(id string, status int, outcome string, rejected *obs.Counter) {
		t.Helper()
		before := rejected.Value()
		req, err := http.NewRequest("POST", ts.URL+"/v1/explore", strings.NewReader(exploreBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d", id, resp.StatusCode, status)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: %d without Retry-After", id, status)
		}
		if got := rejected.Value() - before; got != 1 {
			t.Errorf("%s: rejected counter moved by %d, want 1", id, got)
		}
		d := fr.Dump()
		var adm *obs.SpanDump
		for i := range d.Traces {
			if d.Traces[i].RequestID == id {
				adm = d.Traces[i].Root.Find("admission")
			}
		}
		if adm == nil || adm.Attrs["outcome"] != outcome {
			t.Errorf("%s: admission span %+v, want outcome %s", id, adm, outcome)
		}
		found := false
		for _, ev := range d.Events {
			found = found || (ev.Kind == "shed" && ev.RequestID == id)
		}
		if !found {
			t.Errorf("%s: no shed event in the flight recorder", id)
		}
	}

	resp, data := postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"],"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filler sweep: status %d: %s", resp.StatusCode, data)
	}
	var job JobStatus
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	shed("explore-busy", http.StatusTooManyRequests, "shed-busy", &srv.rejectedBusy)
	be.release()
	if resp, data = get(t, ts.URL+"/v1/jobs/"+job.ID+"?wait=10s"); resp.StatusCode != http.StatusOK {
		t.Fatalf("filler job: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &job); err != nil || job.Status != "done" {
		t.Fatalf("filler job = %s (err %v), want done", data, err)
	}
	if q := srv.QueuedPoints(); q != 0 {
		t.Fatalf("queued points = %d once the filler job reads done, want 0", q)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	shed("explore-drain", http.StatusServiceUnavailable, "shed-drain", &srv.rejectedDrain)
	if srv.QueuedPoints() != 0 {
		t.Errorf("queued points = %d after the drain shed, want 0", srv.QueuedPoints())
	}
}

// erroringBackend fails every point of one scheme, so an exploration dies
// mid-rung while its other points succeed.
type erroringBackend struct {
	mu   sync.Mutex
	fail string // scheme-name substring that errors
	runs int
}

func (e *erroringBackend) RunTimed(ctx context.Context, bench string, s sim.Scheme, o sim.Options) (pipeline.Result, sim.PointTiming, error) {
	e.mu.Lock()
	e.runs++
	e.mu.Unlock()
	if strings.Contains(s.Name, e.fail) {
		return pipeline.Result{}, sim.PointTiming{}, fmt.Errorf("point %s/%s exploded", s.Name, bench)
	}
	return pipeline.Result{Stats: pipeline.Stats{Cycles: 1, Retired: 1}}, sim.PointTiming{}, nil
}

func (e *erroringBackend) Stats() sim.RunnerStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return sim.RunnerStats{JobsRun: uint64(e.runs)}
}

func (e *erroringBackend) Close() {}

// TestExploreErrorFailsJobDrainClean: a candidate erroring mid-rung fails
// the async job with the rung identified, releases every admitted point,
// and leaves the server able to drain immediately (nothing orphaned).
func TestExploreErrorFailsJobDrainClean(t *testing.T) {
	eb := &erroringBackend{fail: "use-32x1"}
	srv := New(Config{Backend: eb})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	async := strings.Replace(exploreBody, `"benches"`, `"async": true, "benches"`, 1)
	resp, data := postExplore(t, ts, async)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	resp, data = get(t, ts.URL+"/v1/jobs/"+st.ID+"?wait=10s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "failed" || !strings.Contains(st.Error, "rung 0") || !strings.Contains(st.Error, "exploded") {
		t.Fatalf("job settled as %+v, want failure naming rung 0", st)
	}
	resp, _ = get(t, ts.URL+"/v1/jobs/"+st.ID+"/results")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("failed job results status %d, want 500", resp.StatusCode)
	}

	waitFor(t, func() bool { return srv.QueuedPoints() == 0 }, "queued points released")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after failed job: %v", err)
	}
}
