package obs

// Prometheus exposition tests: family rendering per kind, histogram
// cumulative buckets, name sanitization, the empty-histogram snapshot
// contract, and registry concurrency (Snapshot racing re-registration
// and Publish — run under -race in CI).

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func promText(r *Registry) string {
	var b strings.Builder
	WritePrometheus(&b, r)
	return b.String()
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve.runner.jobs_run": "serve_runner_jobs_run",
		"already_fine":          "already_fine",
		"9lives":                "_9lives",
		"a-b c":                 "a_b_c",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.CounterFunc("serve.sweeps", c.Value)
	c.Add(7)
	r.Gauge("serve.rate", func() float64 { return 0.25 })
	r.Func("serve.open", func() any { return 3 })
	r.Func("serve.jobs", func() any { return map[string]int{"done": 2, "running": 1} })
	r.Func("serve.ignored", func() any { return "not numeric" })
	h := r.Histogram("serve.wall_ms")
	h.Add(3)
	h.Add(40)
	h.Add(999)

	text := promText(r)
	for _, want := range []string{
		"# TYPE serve_sweeps counter\nserve_sweeps 7\n",
		"# TYPE serve_rate gauge\nserve_rate 0.25\n",
		"# TYPE serve_open untyped\nserve_open 3\n",
		"serve_jobs{key=\"done\"} 2\n",
		"serve_jobs{key=\"running\"} 1\n",
		"# TYPE serve_wall_ms histogram\n",
		"serve_wall_ms_bucket{le=\"2\"} 0\n",
		"serve_wall_ms_bucket{le=\"5\"} 1\n",
		"serve_wall_ms_bucket{le=\"50\"} 2\n",
		"serve_wall_ms_bucket{le=\"1000\"} 3\n",
		"serve_wall_ms_bucket{le=\"+Inf\"} 3\n",
		"serve_wall_ms_sum 1042\n",
		"serve_wall_ms_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "serve_ignored") {
		t.Error("non-numeric Func should be skipped")
	}
	// Buckets must be cumulative (non-decreasing).
	if strings.Contains(text, "le=\"25\"} 0\n") && strings.Contains(text, "le=\"10\"} 1\n") {
		t.Error("buckets not cumulative")
	}
}

// TestEmptyHistogramSnapshot pins the empty-histogram contract: before
// the first observation every snapshot field is a plain zero — valid
// JSON numbers, never NaN/sentinel — because /metrics and /debug/vars
// scrape from process start.
func TestEmptyHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty")
	snap := h.Snapshot()
	for _, k := range []string{"n", "mean", "p50", "p90", "p99", "max"} {
		v, ok := snap[k]
		if !ok {
			t.Fatalf("snapshot missing %q", k)
		}
		f, isNum := promNumber(v)
		if !isNum || f != 0 {
			t.Errorf("empty histogram %s = %v, want plain zero", k, v)
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("empty snapshot not marshallable: %v", err)
	}
	if strings.Contains(string(data), "NaN") {
		t.Fatalf("empty snapshot contains NaN: %s", data)
	}
	// And the exposition form: zero buckets, zero sum/count.
	text := promText(r)
	for _, want := range []string{
		"empty_bucket{le=\"+Inf\"} 0\n", "empty_sum 0\n", "empty_count 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("empty histogram exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines:
// Snapshot and WritePrometheus racing Func re-registration, histogram
// adds, and Publish. Run under -race this is the data-race gate; the
// assertions just prove nothing deadlocked or corrupted.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hist")
	var c Counter
	r.CounterFunc("count", c.Value)
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(4)
		go func() { // re-register the same Func name repeatedly
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := i
				r.Func("flappy", func() any { return v })
				r.Gauge("gauge", func() float64 { return float64(v) })
			}
		}()
		go func() { // snapshot + exposition readers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = r.Snapshot()
				_ = promText(r)
			}
		}()
		go func() { // writers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h.Add(i % 100)
				c.Add(1)
			}
		}()
		go func() { // concurrent Publish (idempotent by contract)
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				r.Publish("prom-test-registry")
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), 4*iters)
	}
	snap := r.Snapshot()
	if _, ok := snap["flappy"]; !ok {
		t.Fatal("re-registered Func missing from snapshot")
	}
	hist, ok := snap["hist"].(map[string]any)
	if !ok || hist["n"] != uint64(4*iters) {
		t.Fatalf("histogram snapshot = %v", snap["hist"])
	}
}
