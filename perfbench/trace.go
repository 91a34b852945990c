package main

// Span recording for the traced run. Three wrappers, all outside the
// program: an http.Handler around the server's handler (one span per
// HTTP exchange, tagged with the X-Request-Id the server sets), a
// serve.Backend around the runner (one span per point call, tagged with
// the request ID its context carries), and set-up spans around the
// set-up calls. Spans stay in memory and are written out when the run
// ends.

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"regcache/internal/core"
	"regcache/internal/obs"
	"regcache/internal/pipeline"
	"regcache/internal/serve"
	"regcache/internal/sim"
)

// tracer collects spans. A nil *tracer records nothing. Recording is
// gated by on, which the client sets for the requests it traces, so a
// traced run can interleave untraced requests through the same stack.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu     sync.Mutex
	http   []httpSpan
	points []pointSpan
	setup  []setupSpan
}

// httpSpan is one HTTP exchange as the server's handler saw it.
type httpSpan struct {
	Request string  `json:"request"`
	Path    string  `json:"path"`
	Start   float64 `json:"start_ms"`
	End     float64 `json:"end_ms"`
	Status  int     `json:"status"`
	Bytes   int     `json:"bytes"`
}

// pointSpan is one call into the runner.
type pointSpan struct {
	Request    string  `json:"request"`
	Scheme     string  `json:"scheme"`
	Family     string  `json:"family"`
	Bench      string  `json:"bench"`
	Insts      uint64  `json:"insts"`
	Threads    int     `json:"threads,omitempty"`
	Start      float64 `json:"start_ms"`
	End        float64 `json:"end_ms"`
	Outcome    string  `json:"outcome"`
	QueueMS    float64 `json:"queue_wait_ms"`
	LookupMS   float64 `json:"store_lookup_ms"`
	SimMS      float64 `json:"sim_ms"`
	SelfMS     float64 `json:"runner_self_ms"`
	Cycles     uint64  `json:"cycles"`
	Retired    uint64  `json:"retired"`
	PortStalls uint64  `json:"port_stalls"`
	Err        string  `json:"error,omitempty"`
}

// setupSpan is one timed set-up call.
type setupSpan struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_ms"`
	End   float64 `json:"end_ms"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns milliseconds since the tracer's epoch.
func (t *tracer) now() float64 { return float64(time.Since(t.epoch).Nanoseconds()) / 1e6 }

// setupSpan starts a set-up span and returns the function that ends it.
func (t *tracer) setupSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	start := t.now()
	return func() {
		end := t.now()
		t.mu.Lock()
		t.setup = append(t.setup, setupSpan{Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// statusWriter records what a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// handler wraps the server's handler with one span per exchange.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		sp := httpSpan{
			Request: w.Header().Get(serve.RequestIDHeader),
			Path:    r.URL.Path,
			Start:   start,
			End:     t.now(),
			Status:  sw.status,
			Bytes:   sw.bytes,
		}
		t.mu.Lock()
		t.http = append(t.http, sp)
		t.mu.Unlock()
	})
}

// tracedBackend is a serve.Backend and serve.TimedBackend recording one
// span per point call into the runner.
type tracedBackend struct {
	r *sim.Runner
	t *tracer
}

func (t *tracer) backend(r *sim.Runner) tracedBackend { return tracedBackend{r: r, t: t} }

func (b tracedBackend) Run(ctx context.Context, bench string, s sim.Scheme, o sim.Options) (pipeline.Result, error) {
	res, _, err := b.RunTimed(ctx, bench, s, o)
	return res, err
}

func (b tracedBackend) RunTimed(ctx context.Context, bench string, s sim.Scheme, o sim.Options) (pipeline.Result, sim.PointTiming, error) {
	if !b.t.on.Load() {
		return b.r.RunTimed(ctx, bench, s, o)
	}
	start := b.t.now()
	res, pt, err := b.r.RunTimed(ctx, bench, s, o)
	end := b.t.now()
	insts := o.Insts
	if insts == 0 {
		insts = sim.DefaultInsts
	}
	sp := pointSpan{
		Request:    obs.SpanFromContext(ctx).RequestID(),
		Scheme:     s.Name,
		Family:     family(s),
		Bench:      bench,
		Insts:      insts,
		Threads:    o.Threads,
		Start:      start,
		End:        end,
		Outcome:    pt.Outcome,
		QueueMS:    pt.QueueWaitMS,
		LookupMS:   pt.StoreLookupMS,
		SimMS:      pt.SimMS,
		SelfMS:     end - start - pt.QueueWaitMS - pt.StoreLookupMS - pt.SimMS,
		Cycles:     res.Stats.Cycles,
		Retired:    res.Stats.Retired,
		PortStalls: res.Stats.PortConflictStalls,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	b.t.mu.Lock()
	b.t.points = append(b.t.points, sp)
	b.t.mu.Unlock()
	return res, pt, err
}

func (b tracedBackend) Stats() sim.RunnerStats { return b.r.Stats() }
func (b tracedBackend) Close()                 { b.r.Close() }

// families are the scheme families the per-layer pipeline metrics are
// split by.
var families = []string{"mono", "use", "lru", "nb", "port", "twolevel", "oracle"}

// family classifies a scheme: oracle schemes first (they add the
// functional pre-pass table), then port-filtered caches, then by kind and
// cache policy.
func family(s sim.Scheme) string {
	switch {
	case s.OracleUses:
		return "oracle"
	case s.Kind == pipeline.SchemeMonolithic:
		return "mono"
	case s.Kind == pipeline.SchemeTwoLevel:
		return "twolevel"
	case s.ReadPorts > 0:
		return "port"
	case s.Cache.Replace == core.ReplaceUseBased:
		return "use"
	case s.Cache.Insert == core.InsertNonBypass:
		return "nb"
	default:
		return "lru"
	}
}
