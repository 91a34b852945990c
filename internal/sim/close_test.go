package sim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestRunnerClose checks the shutdown contract: workers exit, new
// submissions fail fast with ErrClosed, and already-memoized results stay
// readable.
func TestRunnerClose(t *testing.T) {
	r := NewRunner(2)
	s := Monolithic(3)
	res, err := r.Run(context.Background(), "gzip", s, Options{Insts: 10_000})
	if err != nil {
		t.Fatal(err)
	}

	r.Close()
	r.Close() // idempotent

	// Memoized results survive the close.
	res2, err := r.Run(context.Background(), "gzip", s, Options{Insts: 10_000})
	if err != nil {
		t.Fatalf("memoized read after close: %v", err)
	}
	if res2.IPC() != res.IPC() {
		t.Errorf("memoized result changed after close")
	}

	// New work is refused.
	if _, err := r.Run(context.Background(), "mcf", s, Options{Insts: 10_000}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submission after close: err = %v, want ErrClosed", err)
	}
	if r.Open() != 0 {
		t.Errorf("%d jobs still open after close", r.Open())
	}
}

// TestRunnerCloseDrainsQueue floods a single-worker runner and closes it
// mid-flight: every submission must settle (completed or ErrClosed), no
// waiter may hang, and the pool must not execute jobs after the drain.
func TestRunnerCloseDrainsQueue(t *testing.T) {
	r := NewRunner(1)
	s := Monolithic(3)

	var wg sync.WaitGroup
	errs := make([]error, 24)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct budgets make distinct jobs: no memo joining.
			_, errs[i] = r.Run(context.Background(), "gzip", s, Options{Insts: uint64(20_000 + i)})
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let some submissions land
	r.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("waiters hung after Close")
	}

	var completed, failed int
	for _, err := range errs {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrClosed):
			failed++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if completed+failed != len(errs) {
		t.Errorf("completed %d + failed %d != %d", completed, failed, len(errs))
	}
	if failed == 0 {
		t.Logf("note: all %d jobs outran Close on this machine", completed)
	}
	if r.Open() != 0 {
		t.Errorf("%d jobs still open after drain", r.Open())
	}
}

// TestSubmitRespectsContext cancels a submitter blocked on a full queue:
// it must return the context error instead of blocking until space frees,
// and the failed entry must not poison later requests for the same job.
func TestSubmitRespectsContext(t *testing.T) {
	r := NewRunner(1)
	defer r.Close()
	s := Monolithic(3)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	const n = 40 // worker capacity 1, queue capacity 16: most of these block
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Run(ctx, "gzip", s, Options{Insts: uint64(30_000 + i)})
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled submitters hung")
	}

	var cancelled int
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		} else if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if cancelled == 0 {
		t.Log("note: every submission beat the cancellation on this machine")
	}

	// A job whose submission was cancelled must be retryable afterwards.
	if _, err := r.Run(context.Background(), "gzip", s, Options{Insts: 30_000 + n - 1}); err != nil {
		t.Fatalf("retry after cancelled submission: %v", err)
	}
}
