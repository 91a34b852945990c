package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"regcache/internal/pipeline"
	"regcache/internal/sim"
	"regcache/internal/store"
)

// TestRetryAfterHintScalesWithLoad pins the load-aware back-off contract
// fleet peers rely on: an idle queue hints the 1s base, a full
// queue 8x that, linear and monotonic in between, clamped beyond full.
func TestRetryAfterHintScalesWithLoad(t *testing.T) {
	srv := New(Config{Backend: &fakeBackend{}, MaxQueuedPoints: 100})

	if got := srv.retryAfterHint(); got != time.Second {
		t.Errorf("idle hint = %v, want 1s (the base)", got)
	}
	setQueued := func(n int) {
		srv.mu.Lock()
		srv.queued = n
		srv.mu.Unlock()
	}
	setQueued(50)
	if got, want := srv.retryAfterHint(), 4500*time.Millisecond; got != want {
		t.Errorf("half-full hint = %v, want %v", got, want)
	}
	setQueued(100)
	if got, want := srv.retryAfterHint(), 8*time.Second; got != want {
		t.Errorf("full hint = %v, want %v (8x base)", got, want)
	}
	// Transiently over-full (releases lagging admissions) must clamp, not
	// extrapolate.
	setQueued(250)
	if got, want := srv.retryAfterHint(), 8*time.Second; got != want {
		t.Errorf("over-full hint = %v, want clamped %v", got, want)
	}
	// Monotonic in queue depth.
	prev := time.Duration(-1)
	for q := 0; q <= 100; q += 10 {
		setQueued(q)
		h := srv.retryAfterHint()
		if h < prev {
			t.Fatalf("hint not monotonic: %v at depth %d after %v", h, q, prev)
		}
		prev = h
	}
}

// TestShed429CarriesLoadScaledRetryAfter: a sweep shed at a full queue
// answers 429 with the scaled hint — a full queue means the maximum
// back-off, not the base.
func TestShed429CarriesLoadScaledRetryAfter(t *testing.T) {
	be := newBlockingBackend()
	srv := New(Config{Backend: be, MaxQueuedPoints: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer be.release()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"]}`)
	}()
	waitFor(t, func() bool { return srv.QueuedPoints() == 1 }, "first sweep admitted")

	resp, data := postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "8" {
		t.Errorf("Retry-After = %q, want %q (8x base at a full queue)", got, "8")
	}
	be.release()
	<-done
}

// TestDrain503CarriesRetryAfter: a draining node sheds with 503 plus a
// Retry-After hint, so fleet coordinators (and polite clients) know how
// long to wait before trying a restarted instance.
func TestDrain503CarriesRetryAfter(t *testing.T) {
	srv := New(Config{Backend: &fakeBackend{}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, data := postSweep(t, ts, `{"benches":["gzip"],"schemes":["mono:3"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q (the idle base hint)", got, "1")
	}
}

// TestPeersEndpointSingleNode: /v1/peers always answers, reporting an
// empty fleet on a standalone server.
func TestPeersEndpointSingleNode(t *testing.T) {
	srv := New(Config{Backend: &fakeBackend{}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := get(t, ts.URL+"/v1/peers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var pr peersResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("parse peers: %v", err)
	}
	if len(pr.Endpoints) != 0 || pr.Draining || pr.Store {
		t.Errorf("standalone peers = %+v, want empty fleet, not draining, no store", pr)
	}
}

// TestStoreGetErrors: GET /v1/store/{key} is a 404 on a storeless node
// (the fleet prober treats it as a miss) and a 400 for a malformed key on
// a node with a store (the caller's error, not a miss).
func TestStoreGetErrors(t *testing.T) {
	srv := New(Config{Backend: &fakeBackend{}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	key := strings.Repeat("a", 64)
	resp, _ := get(t, ts.URL+"/v1/store/"+key)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("storeless GET /v1/store: status %d, want 404", resp.StatusCode)
	}

	rs, err := sim.OpenResultStore(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer rs.Close()
	srv2 := New(Config{Backend: &fakeBackend{}, Store: rs})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	resp, _ = get(t, ts2.URL+"/v1/store/nothex")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad key: status %d, want 400", resp.StatusCode)
	}
	// A well-formed but absent key is a plain miss.
	resp, _ = get(t, ts2.URL+"/v1/store/"+key)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("absent key: status %d, want 404", resp.StatusCode)
	}
}

// TestStoreGetServesPayload: a stored point is served as the binary
// payload, labelled application/octet-stream, and decodes with
// sim.DecodeStoredPayload to the record and result that were put.
func TestStoreGetServesPayload(t *testing.T) {
	rs, err := sim.OpenResultStore(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer rs.Close()
	sc, err := sim.ParseSchemeSpec("use:16x2:filtered")
	if err != nil {
		t.Fatal(err)
	}
	j := sim.Job{Scheme: sc, Bench: "gzip", Opts: sim.Options{Insts: 2000}}
	res := pipeline.Result{Stats: pipeline.Stats{Cycles: 1600, Retired: 2000}}
	if err := rs.Put(j, res); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Backend: &fakeBackend{}, Store: rs})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := get(t, ts.URL+"/v1/store/"+sim.Fingerprint(j).String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type %q, want application/octet-stream", ct)
	}
	rec, got, err := sim.DecodeStoredPayload(data)
	if err != nil {
		t.Fatalf("body does not decode: %v", err)
	}
	if rec.Bench != j.Bench || rec.Scheme.Name != sc.Name || got.Stats != res.Stats {
		t.Errorf("decoded %s/%s stats %+v, want %s/%s stats %+v", rec.Scheme.Name, rec.Bench, got.Stats, sc.Name, j.Bench, res.Stats)
	}
}
