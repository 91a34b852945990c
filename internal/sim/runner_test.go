package sim

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"regcache/internal/core"
)

func TestRunnerMemoizesAndSingleFlights(t *testing.T) {
	r := NewRunner(2)
	s := UseBased(16, 2, core.IndexFilteredRR)
	o := Options{Insts: 10_000}

	// Concurrent identical requests must simulate exactly once.
	const requesters = 8
	var wg sync.WaitGroup
	results := make([]float64, requesters)
	for i := 0; i < requesters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(context.Background(), "gzip", s, o)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.IPC()
		}(i)
	}
	wg.Wait()
	st := r.Stats()
	if st.JobsRun != 1 {
		t.Errorf("jobs run = %d, want 1 (single flight)", st.JobsRun)
	}
	if st.CacheHits != requesters-1 {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, requesters-1)
	}
	for i := 1; i < requesters; i++ {
		if results[i] != results[0] {
			t.Fatalf("requester %d saw IPC %v, requester 0 saw %v", i, results[i], results[0])
		}
	}

	// A different budget is a different job.
	if _, err := r.Run(context.Background(), "gzip", s, Options{Insts: 12_000}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.JobsRun != 2 {
		t.Errorf("jobs run = %d after distinct-budget request, want 2", st.JobsRun)
	}
	if st := r.Stats(); st.SimWall <= 0 {
		t.Errorf("sim wall = %v, want > 0", st.SimWall)
	}
}

func TestRunnerMemoKeyNormalizesDefaults(t *testing.T) {
	r := NewRunner(1)
	s := Monolithic(1)
	// Insts 0 and DefaultInsts are the same job after normalization.
	if _, err := r.Run(context.Background(), "gzip", s, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), "gzip", s, Options{Insts: DefaultInsts}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.JobsRun != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 1 job / 1 hit (defaulted options collide)", st)
	}
}

func TestRunnerMemoizesErrors(t *testing.T) {
	r := NewRunner(1)
	s := Monolithic(1)
	o := Options{Insts: 1_000}
	if _, err := r.Run(context.Background(), "nonesuch", s, o); err == nil {
		t.Fatal("expected unknown-benchmark error")
	}
	if _, err := r.Run(context.Background(), "nonesuch", s, o); err == nil {
		t.Fatal("expected memoized error")
	}
	st := r.Stats()
	if st.JobsRun != 1 || st.Errors != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 1 job / 1 error / 1 hit", st)
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	r := NewRunner(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.Run(ctx, "gzip", Monolithic(1), Options{Insts: 5_000})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The job itself still completes and is memoized for later callers.
	if _, err := r.Run(context.Background(), "gzip", Monolithic(1), Options{Insts: 5_000}); err != nil {
		t.Fatalf("post-cancel request failed: %v", err)
	}
}

func TestRunnerReset(t *testing.T) {
	r := NewRunner(1)
	o := Options{Insts: 5_000}
	if _, err := r.Run(context.Background(), "gzip", Monolithic(1), o); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if _, err := r.Run(context.Background(), "gzip", Monolithic(1), o); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.JobsRun != 2 {
		t.Errorf("jobs run = %d after reset, want 2", st.JobsRun)
	}
}

// RunSuite must surface an unknown-benchmark error without losing the
// other benchmarks' results (partial results + joined errors).
func TestRunSuitePartialResultsOnError(t *testing.T) {
	r := NewRunner(2)
	defer r.Close()
	sr, err := r.RunSuite([]string{"gzip", "nonesuch", "twolf"}, UseBased(16, 2, core.IndexFilteredRR), Options{Insts: 10_000})
	if err == nil {
		t.Fatal("expected an error for the unknown benchmark")
	}
	if !strings.Contains(err.Error(), "nonesuch") {
		t.Errorf("error %q does not name the failing benchmark", err)
	}
	if sr == nil {
		t.Fatal("partial SuiteResult dropped")
	}
	if len(sr.PerBench) != 2 {
		t.Fatalf("partial results = %d benchmarks, want 2", len(sr.PerBench))
	}
	for _, b := range []string{"gzip", "twolf"} {
		if res, ok := sr.PerBench[b]; !ok || res.IPC() <= 0 {
			t.Errorf("%s result missing or empty from partial suite", b)
		}
	}
}

// The memoized pool must reproduce exactly what direct serial execution
// produces, and a repeated suite must be served entirely from the memo.
func TestRunnerMatchesSerialExecution(t *testing.T) {
	benches := []string{"gzip", "mcf"}
	s := UseBased(64, 2, core.IndexFilteredRR)
	o := Options{Insts: 15_000}
	r := NewRunner(4)

	before := r.Stats()
	for _, b := range benches {
		serial, err := Execute(DefaultWorkloads(), b, s, o)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := r.Run(context.Background(), b, s, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pooled, serial) {
			t.Fatalf("%s: pooled result differs from serial execution", b)
		}
	}
	// Second pass: all hits, identical results.
	mid := r.Stats().Sub(before)
	if mid.JobsRun != uint64(len(benches)) {
		t.Fatalf("first pass ran %d jobs, want %d", mid.JobsRun, len(benches))
	}
	for _, b := range benches {
		if _, err := r.Run(context.Background(), b, s, o); err != nil {
			t.Fatal(err)
		}
	}
	after := r.Stats().Sub(before)
	if after.JobsRun != mid.JobsRun {
		t.Errorf("second pass re-ran jobs: %d -> %d", mid.JobsRun, after.JobsRun)
	}
	if hits := after.CacheHits - mid.CacheHits; hits != uint64(len(benches)) {
		t.Errorf("second pass cache hits = %d, want %d", hits, len(benches))
	}
}

func TestPrefetchWarmsTheMemo(t *testing.T) {
	r := NewRunner(2)
	benches := []string{"gzip", "twolf"}
	schemes := []Scheme{Monolithic(1), Monolithic(3)}
	o := Options{Insts: 8_000}
	r.Prefetch(benches, schemes, o)
	for _, s := range schemes {
		for _, b := range benches {
			if _, err := r.Run(context.Background(), b, s, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := r.Stats()
	if st.JobsRun != 4 {
		t.Errorf("jobs run = %d, want 4 (one per scheme×bench)", st.JobsRun)
	}
	if st.CacheHits != 4 {
		t.Errorf("cache hits = %d, want 4 (every Run joined a prefetched job)", st.CacheHits)
	}
}

func TestRunnerConfiguration(t *testing.T) {
	if NewRunner(0).Workers() <= 0 {
		t.Error("defaulted worker count must be positive")
	}
	if NewRunner(3).Workers() != 3 {
		t.Error("explicit worker count ignored")
	}
}

func TestJobKeyDistinguishesConfigs(t *testing.T) {
	a := UseBased(64, 2, core.IndexFilteredRR)
	b := a
	b.Cache.MaxUse = 3 // same name, different config (Sec53-style ablation)
	ka := Job{Scheme: a, Bench: "gzip", Opts: Options{Insts: 1000}}.Key()
	kb := Job{Scheme: b, Bench: "gzip", Opts: Options{Insts: 1000}}.Key()
	if ka == kb {
		t.Error("job keys must distinguish schemes that differ only in config")
	}
	if !strings.Contains(ka, "gzip") {
		t.Errorf("key %q missing benchmark", ka)
	}
	for _, pair := range [][2]Options{
		{{Insts: 1000, Threads: 2}, {Insts: 1000, Threads: 4}},
		{{Insts: 1000, Threads: 2, Interleave: 4}, {Insts: 1000, Threads: 2, Interleave: 8}},
	} {
		k0 := Job{Scheme: a, Bench: "gzip", Opts: pair[0]}.Key()
		k1 := Job{Scheme: a, Bench: "gzip", Opts: pair[1]}.Key()
		if k0 == k1 {
			t.Errorf("options %+v and %+v share the job key %q", pair[0], pair[1], k0)
		}
	}
}

// TestRunnerRecoversPanickedJob: a configuration that panics deep inside
// the simulator (here a geometry core.New rejects, built directly so it
// bypasses Scheme.Validate) must settle as a job error — the worker pool,
// and with it the daemon, survives and keeps executing other jobs.
func TestRunnerRecoversPanickedJob(t *testing.T) {
	r := NewRunnerWith(1, NewWorkloadCache())
	defer r.Close()

	bad := UseBased(64, 2, core.IndexFilteredRR)
	bad.Cache.Ways = 3 // 64 % 3 != 0: core.New panics
	_, err := r.Run(context.Background(), "gzip", bad, Options{Insts: 1000})
	if err == nil {
		t.Fatal("panicking job returned nil error")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error %q does not mention the panic", err)
	}
	if st := r.Stats(); st.Errors != 1 {
		t.Errorf("runner errors = %d, want 1", st.Errors)
	}

	// The single worker that ran the panicking job still serves new work.
	res, err := r.Run(context.Background(), "gzip", Monolithic(1), Options{Insts: 1000})
	if err != nil {
		t.Fatalf("run after panicked job: %v", err)
	}
	if res.IPC() <= 0 {
		t.Errorf("IPC = %v after panicked job, want > 0", res.IPC())
	}
}
