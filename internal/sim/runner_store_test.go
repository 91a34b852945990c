package sim

// Fault-injection tests for the runner's store path: failed appends must
// be counted and surfaced (not silently dropped). A store append the test
// holds open also holds the one worker, which pins jobs in the FIFO for
// the requester-leaving tests.

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestStoreAppendFailureCounted pins the fix for silently dropped store
// appends: a failed Put must increment StoreErrors (surfaced through
// Stats, RegisterMetrics, and the results schema) instead of vanishing,
// and must not count as a write.
func TestStoreAppendFailureCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	j := testStoreJob()

	rs := openTestStore(t, dir)
	defer rs.Close()
	rs.Store().SetWriteHook(func([]byte) (int, error) {
		return 0, errors.New("injected: disk full")
	})

	r := NewRunnerWith(1, NewWorkloadCache())
	defer r.Close()
	if err := r.UseStore(rs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), j.Bench, j.Scheme, j.Opts); err != nil {
		t.Fatalf("a failed append must not fail the job: %v", err)
	}

	// The append settles before the job does, so Run's return is enough.
	st := r.Stats()
	if st.StoreErrors != 1 {
		t.Errorf("StoreErrors = %d, want 1", st.StoreErrors)
	}
	if st.StoreWrites != 0 {
		t.Errorf("StoreWrites = %d, want 0 (the append failed)", st.StoreWrites)
	}
	if got := rs.Store().Stats().AppendErrors; got != 1 {
		t.Errorf("store-level AppendErrors = %d, want 1", got)
	}
}

// heldRunner returns a one-worker runner whose first job, testStoreJob,
// is stuck in its store append until release is called: until then the
// worker stays busy and every later job waits in the FIFO.
func heldRunner(t *testing.T) (r *Runner, release func()) {
	t.Helper()
	rs := openTestStore(t, filepath.Join(t.TempDir(), "store"))
	entered, gate := make(chan struct{}), make(chan struct{})
	var enterOnce, gateOnce sync.Once
	rs.Store().SetWriteHook(func(b []byte) (int, error) {
		enterOnce.Do(func() { close(entered) })
		<-gate
		return len(b), nil
	})
	r = NewRunnerWith(1, NewWorkloadCache())
	if err := r.UseStore(rs); err != nil {
		t.Fatal(err)
	}
	release = func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		r.Close()
		rs.Close()
	})
	j := testStoreJob()
	r.Prefetch([]string{j.Bench}, []Scheme{j.Scheme}, j.Opts)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the held job never reached its store append")
	}
	return r, release
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJoinerOutlivesFirstRequester: a requester that joined a waiting
// job keeps its result when the job's first requester gives up. Seventeen
// jobs queue ahead of it, more than a bounded submission queue of 16 per
// worker would hold, so the first request must not block and own the job.
func TestJoinerOutlivesFirstRequester(t *testing.T) {
	r, release := heldRunner(t)
	for i := 0; i < 17; i++ {
		r.Prefetch([]string{"gzip"}, []Scheme{Monolithic(1)}, Options{Insts: uint64(1000 + i)})
	}
	s, o := Monolithic(3), Options{Insts: 3000}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, joiner := make(chan error, 1), make(chan error, 1)
	open := r.Open()
	go func() {
		_, err := r.Run(ctx, "gzip", s, o)
		first <- err
	}()
	waitUntil(t, func() bool { return r.Open() == open+1 }, "the first request to create the job")
	hits := r.Stats().CacheHits
	go func() {
		res, err := r.Run(context.Background(), "gzip", s, o)
		if err == nil && res.IPC() <= 0 {
			err = errors.New("empty result")
		}
		joiner <- err
	}()
	waitUntil(t, func() bool { return r.Stats().CacheHits == hits+1 }, "the second request to join the job")

	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first requester: err = %v, want context.Canceled", err)
	}
	release()
	if err := <-joiner; err != nil {
		t.Fatalf("joiner failed after the first requester left: %v", err)
	}
}

// TestAbandonedJobNeverRuns: a job whose only requester leaves before a
// worker takes it is dropped — it never simulates — and a later request
// for it starts it afresh.
func TestAbandonedJobNeverRuns(t *testing.T) {
	r, release := heldRunner(t)
	s, o := Monolithic(3), Options{Insts: 3000}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	open := r.Open()
	go func() {
		_, err := r.Run(ctx, "gzip", s, o)
		errc <- err
	}()
	waitUntil(t, func() bool { return r.Open() == open+1 }, "the request to queue its job")
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := r.Open(); got != open {
		t.Errorf("open jobs = %d after the only requester left, want %d", got, open)
	}
	release()

	// A job queued after the abandoned one finishes after the worker has
	// passed its place in the FIFO.
	if _, err := r.Run(context.Background(), "gzip", Monolithic(1), o); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.JobsRun != 2 {
		t.Errorf("jobs run = %d, want 2 (the held job and the later one; the abandoned job never runs)", st.JobsRun)
	}
	res, err := r.Run(context.Background(), "gzip", s, o)
	if err != nil {
		t.Fatalf("later request for the abandoned job: %v", err)
	}
	if res.IPC() <= 0 {
		t.Errorf("IPC = %v, want > 0", res.IPC())
	}
	if st := r.Stats(); st.JobsRun != 3 || st.CacheHits != 0 {
		t.Errorf("stats = %+v, want 3 jobs run and no cache hit (the abandoned job left the memo)", st)
	}
}
