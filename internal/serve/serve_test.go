package serve

// End-to-end service tests over net/http/httptest: coalescing of
// concurrent identical sweeps (one simulation, byte-identical bodies),
// prompt deadline-exceeded returns, bounded-queue load shedding with 429,
// and graceful drain that completes in-flight jobs. All of it runs under
// `go test -race` in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"regcache/internal/obs"
	"regcache/internal/pipeline"
	"regcache/internal/sim"
)

// fakeBackend is a controllable Backend: RunTimed blocks on gate (when set)
// until release() or context expiry.
type fakeBackend struct {
	mu     sync.Mutex
	gate   chan struct{}
	runs   int
	closed bool
}

func newBlockingBackend() *fakeBackend {
	return &fakeBackend{gate: make(chan struct{})}
}

func (f *fakeBackend) RunTimed(ctx context.Context, bench string, s sim.Scheme, o sim.Options) (pipeline.Result, sim.PointTiming, error) {
	f.mu.Lock()
	f.runs++
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return pipeline.Result{}, sim.PointTiming{}, ctx.Err()
		}
	}
	return pipeline.Result{Stats: pipeline.Stats{Cycles: 1, Retired: 1}}, sim.PointTiming{}, nil
}

func (f *fakeBackend) release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gate != nil {
		close(f.gate)
		f.gate = nil
	}
}

func (f *fakeBackend) Stats() sim.RunnerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return sim.RunnerStats{JobsRun: uint64(f.runs)}
}

func (f *fakeBackend) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}

func (f *fakeBackend) wasClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

// TestConcurrentIdenticalSweepsCoalesce is the tentpole proof: N
// concurrent identical sweep requests produce exactly one simulation
// (coalesce counter = N-1 on the run layer) and byte-identical bodies.
func TestConcurrentIdenticalSweepsCoalesce(t *testing.T) {
	runner := sim.NewRunnerWith(2, sim.NewWorkloadCache())
	srv := New(Config{Backend: runner})
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg, "serve")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer runner.Close()

	const n = 6
	body := `{"benches":["gzip"],"schemes":["use:16x2:filtered"],"insts":5000}`
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postSweep(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = data
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var f sim.ResultsFile
	if err := json.Unmarshal(bodies[0], &f); err != nil {
		t.Fatalf("parsing results: %v", err)
	}
	if f.SchemaVersion != sim.ResultsSchemaVersion || len(f.Runs) != 1 {
		t.Fatalf("results file: schema %d, %d runs", f.SchemaVersion, len(f.Runs))
	}
	if f.Runs[0].IPC <= 0 {
		t.Fatalf("run IPC = %v, want > 0", f.Runs[0].IPC)
	}

	st := runner.Stats()
	if st.JobsRun != 1 {
		t.Fatalf("jobs run = %d, want 1 (identical sweeps must coalesce)", st.JobsRun)
	}
	if st.CacheHits != n-1 {
		t.Fatalf("coalesce counter = %d, want %d", st.CacheHits, n-1)
	}

	// The service metrics reflect the coalescing and the drained queue.
	snap := reg.Snapshot()
	if got := snap["serve.coalesced_points"]; got != uint64(n-1) {
		t.Fatalf("serve.coalesced_points = %v, want %d", got, n-1)
	}
	if got := snap["serve.points_run"]; got != uint64(1) {
		t.Fatalf("serve.points_run = %v, want 1", got)
	}
	if got := snap["serve.queued_points"]; got != 0 {
		t.Fatalf("serve.queued_points = %v, want 0 after completion", got)
	}

	// And they are visible on the expvar endpoint the mux serves.
	obs.Default().Publish("regcache")
	resp, data := get(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", resp.StatusCode)
	}
	if !bytes.Contains(data, []byte(`"regcache"`)) {
		t.Fatalf("/debug/vars does not expose the regcache registry")
	}
}

// TestDeadlineExceededReturnsPromptly: a sweep whose deadline expires
// while its points are still executing returns 504 quickly instead of
// hanging for the full simulation.
func TestDeadlineExceededReturnsPromptly(t *testing.T) {
	be := newBlockingBackend()
	defer be.release()
	srv := New(Config{Backend: be})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	resp, data := postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"],"deadline_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, data)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("deadline-exceeded response took %v", el)
	}
	if !bytes.Contains(data, []byte("deadline")) {
		t.Fatalf("error body %s does not mention the deadline", data)
	}
	if srv.QueuedPoints() != 0 {
		t.Fatalf("queued points = %d after deadline, want 0", srv.QueuedPoints())
	}
}

// TestFullQueueShedsLoad: once admitted-but-unfinished points reach the
// bound, further sweeps get 429 + Retry-After; capacity admits again
// after the queue drains.
func TestFullQueueShedsLoad(t *testing.T) {
	be := newBlockingBackend()
	srv := New(Config{Backend: be, MaxQueuedPoints: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Fill the queue: async so the handler returns while points block.
	resp, data := postSweep(t, ts, `{"benches":["gzip","mcf"],"schemes":["mono:3"],"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filler sweep: status %d: %s", resp.StatusCode, data)
	}
	var job JobStatus
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatalf("parsing job: %v", err)
	}

	resp, data = postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota sweep: status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}

	// Drain the queue and verify admission recovers.
	be.release()
	resp, data = get(t, fmt.Sprintf("%s/v1/jobs/%s?wait=10s", ts.URL, job.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status: %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil || st.Status != "done" {
		t.Fatalf("job status = %s (err %v), want done", data, err)
	}
	// A settled job has returned its points: a client that saw it done
	// may resubmit at once.
	if q := srv.QueuedPoints(); q != 0 {
		t.Fatalf("queued points = %d once the job reads done, want 0", q)
	}
	resp, data = postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain sweep: status %d, want 200: %s", resp.StatusCode, data)
	}
}

// TestOversizedSweepRejectedPermanently: a sweep larger than the whole
// queue bound can never be admitted, so even an idle server answers 413
// without a Retry-After — a 429 would have well-behaved clients retry a
// permanently failing request forever.
func TestOversizedSweepRejectedPermanently(t *testing.T) {
	be := &fakeBackend{}
	srv := New(Config{Backend: be, MaxQueuedPoints: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postSweep(t, ts, `{"benches":["gzip","mcf","twolf"],"schemes":["mono:3"]}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatalf("413 carries Retry-After %q; the rejection is permanent", resp.Header.Get("Retry-After"))
	}
	if srv.QueuedPoints() != 0 {
		t.Fatalf("queued points = %d after rejection, want 0", srv.QueuedPoints())
	}
	// A sweep that fits the bound still runs on the idle server.
	resp, data = postSweep(t, ts, `{"benches":["gzip","mcf"],"schemes":["mono:3"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fitting sweep: status %d, want 200: %s", resp.StatusCode, data)
	}
}

// TestHostileSchemeConfigsRejected: scheme specs and full SchemeRecord
// blocks that would panic the simulator (non-divisible geometries,
// negative sizes, an undersized physical register space) must bounce with
// 400 at parse time instead of crashing a worker goroutine.
func TestHostileSchemeConfigsRejected(t *testing.T) {
	be := &fakeBackend{}
	srv := New(Config{Backend: be})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"non-divisible spec geometry", `{"benches":["gzip"],"schemes":["use:64x3"]}`},
		{"record with negative entries", `{"benches":["gzip"],"scheme_records":[{"name":"x","kind":"cache","cache":{"Entries":-8,"Ways":2}}]}`},
		{"record with non-divisible geometry", `{"benches":["gzip"],"scheme_records":[{"name":"x","kind":"cache","cache":{"Entries":64,"Ways":3}}]}`},
		{"record with tiny preg space", `{"benches":["gzip"],"scheme_records":[{"name":"x","kind":"cache","cache":{"Entries":64,"Ways":2,"MaxPRegs":4}}]}`},
		{"record with huge entries", `{"benches":["gzip"],"scheme_records":[{"name":"x","kind":"cache","cache":{"Entries":1073741824,"Ways":2}}]}`},
		{"record with negative two-level L1", `{"benches":["gzip"],"scheme_records":[{"name":"x","kind":"two-level","two_level":{"L1Entries":-96}}]}`},
	}
	for _, tc := range cases {
		resp, data := postSweep(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, data)
		}
	}
	be.mu.Lock()
	runs := be.runs
	be.mu.Unlock()
	if runs != 0 {
		t.Errorf("backend ran %d points for hostile configs, want 0", runs)
	}
}

// TestSweepOptionRulesRejected posts the run-contract rejection table
// shared with internal/sim and cmd/regsimc: every row is a 400 whose error
// names the row's JSON field, and no point reaches the backend.
func TestSweepOptionRulesRejected(t *testing.T) {
	be := &fakeBackend{}
	srv := New(Config{Backend: be})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	data, err := os.ReadFile("../sim/testdata/rejected_sweeps.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name    string       `json:"name"`
		Field   string       `json:"field"`
		Request SweepRequest `json:"request"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		req := row.Request
		if len(req.Benches) == 0 {
			req.Benches = []string{"gzip"}
		}
		if len(req.Schemes) == 0 && len(req.SchemeRecords) == 0 {
			req.Schemes = []string{"use:16x2"}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postSweep(t, ts, string(body))
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, row.Field) {
			t.Errorf("%s: status %d, error %q; want 400 naming %q", row.Name, resp.StatusCode, e.Error, row.Field)
		}
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.runs != 0 {
		t.Errorf("backend ran %d points for rejected sweeps, want 0", be.runs)
	}
}

// TestSettledJobsEvicted: the job map is capped at MaxJobs — sustained
// async load evicts the oldest settled jobs (and their results documents)
// instead of growing without bound.
func TestSettledJobsEvicted(t *testing.T) {
	be := &fakeBackend{}
	srv := New(Config{Backend: be, MaxJobs: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		resp, data := postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"],"async":true}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async sweep %d: status %d: %s", i, resp.StatusCode, data)
		}
		var job JobStatus
		if err := json.Unmarshal(data, &job); err != nil {
			t.Fatalf("parsing job: %v", err)
		}
		ids = append(ids, job.ID)
		// Settle before submitting the next: only settled jobs are evictable.
		resp, data = get(t, fmt.Sprintf("%s/v1/jobs/%s?wait=10s", ts.URL, job.ID))
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil || st.Status != "done" {
			t.Fatalf("job %s = %s (err %v), want done", job.ID, data, err)
		}
	}

	// The oldest job was evicted to admit the third; the newest survives.
	resp, _ := get(t, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, ids[0]))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job %s: status %d, want 404", ids[0], resp.StatusCode)
	}
	resp, data := get(t, fmt.Sprintf("%s/v1/jobs/%s/results", ts.URL, ids[2]))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("newest job %s results: status %d, want 200: %s", ids[2], resp.StatusCode, data)
	}
}

// TestDrainCompletesInFlight: Drain (the SIGTERM path) refuses new work
// with 503, waits for in-flight jobs, closes the backend, and keeps
// completed results fetchable.
func TestDrainCompletesInFlight(t *testing.T) {
	be := newBlockingBackend()
	srv := New(Config{Backend: be})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"],"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async sweep: status %d: %s", resp.StatusCode, data)
	}
	var job JobStatus
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatalf("parsing job: %v", err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// Draining refuses new sweeps with 503.
	waitFor(t, srv.Draining, "server to start draining")
	resp, data = postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep during drain: status %d, want 503: %s", resp.StatusCode, data)
	}

	// The in-flight job completes; Drain returns and closes the backend.
	be.release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !be.wasClosed() {
		t.Fatalf("drain did not close the backend runner")
	}

	// The drained job's results were not lost.
	resp, data = get(t, fmt.Sprintf("%s/v1/jobs/%s/results", ts.URL, job.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain results: status %d: %s", resp.StatusCode, data)
	}
	var f sim.ResultsFile
	if err := json.Unmarshal(data, &f); err != nil || len(f.Runs) != 1 {
		t.Fatalf("post-drain results body %s (err %v)", data, err)
	}
}

// TestLargeSweepGoesAsync: sweeps above MaxSyncPoints are answered with
// 202 + a job ID even without async:true; the job completes and its
// document is fetchable.
func TestLargeSweepGoesAsync(t *testing.T) {
	runner := sim.NewRunnerWith(2, sim.NewWorkloadCache())
	srv := New(Config{Backend: runner, MaxSyncPoints: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer runner.Close()

	resp, data := postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:1","mono:3"],"insts":5000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202: %s", resp.StatusCode, data)
	}
	var job JobStatus
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatalf("parsing job: %v", err)
	}
	if job.Points != 2 {
		t.Fatalf("job points = %d, want 2", job.Points)
	}

	resp, data = get(t, fmt.Sprintf("%s/v1/jobs/%s?wait=10s", ts.URL, job.ID))
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil || st.Status != "done" {
		t.Fatalf("job after wait = %s (err %v), want done", data, err)
	}
	resp, data = get(t, fmt.Sprintf("%s/v1/jobs/%s/results", ts.URL, job.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d: %s", resp.StatusCode, data)
	}
	var f sim.ResultsFile
	if err := json.Unmarshal(data, &f); err != nil || len(f.Runs) != 2 {
		t.Fatalf("results body has %d runs (err %v), want 2", len(f.Runs), err)
	}
	// The job list knows about it too.
	resp, data = get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(job.ID)) {
		t.Fatalf("/v1/jobs (%d): %s", resp.StatusCode, data)
	}
}

// TestBadRequests exercises the 400/404 surfaces.
func TestBadRequests(t *testing.T) {
	be := &fakeBackend{}
	srv := New(Config{Backend: be})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"benches":`},
		{"no schemes", `{"benches":["gzip"]}`},
		{"unknown bench", `{"benches":["nope"],"schemes":["mono:3"]}`},
		{"bad scheme spec", `{"benches":["gzip"],"schemes":["warp:9"]}`},
		{"bad geometry", `{"benches":["gzip"],"schemes":["use:64y2"]}`},
	}
	for _, tc := range cases {
		resp, data := postSweep(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, data)
		}
	}

	resp, _ := get(t, ts.URL+"/v1/jobs/j-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/jobs/j-999/results")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job results: status %d, want 404", resp.StatusCode)
	}

	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", resp.StatusCode)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
