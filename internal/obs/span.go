package obs

// Request-scoped tracing for the service plane. A trace is a tree of
// spans rooted at one request (a sweep submission); child spans cover
// admission, per-point memo/store/simulate decisions, interval warm-up
// and measured windows, and store appends. The model is deliberately
// small: spans live in memory, parent links are direct pointers, and a
// finished root hands its whole tree to the FlightRecorder that created
// it — there is no external exporter.
//
// Like the Tracer interface, the disabled path is nil: every method on a
// nil *Span is a no-op, so components thread spans unconditionally and a
// caller that never started a trace pays one nil check per call site.
// Overhead is bounded even when enabled: attribute and child counts are
// capped per span, with drops counted rather than grown.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID identifies one trace (one traced request).
type TraceID uint64

// String renders the ID as fixed-width hex (the wire/log form).
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// SpanID identifies one span within its trace. IDs are assigned
// sequentially from the root (which is always 1), so a dump's parent
// links are stable and human-checkable.
type SpanID uint64

// Bounds on per-span fan-out. A sweep of thousands of points would
// otherwise grow one request's trace without limit; beyond the caps the
// recorder keeps counting but stops retaining.
const (
	maxSpanAttrs    = 32
	maxSpanChildren = 512
)

// Attr is one typed span attribute. Value is set only through the typed
// setters, so it is always a string, int64, float64, or bool — every
// one JSON-renderable without reflection surprises.
type Attr struct {
	Key   string
	Value any
}

// traceShared is the per-trace state every span of one tree points at.
type traceShared struct {
	recorder  *FlightRecorder
	traceID   TraceID
	requestID string
	root      *Span
	nextID    SpanID
	mu        sync.Mutex // guards nextID
}

func (ts *traceShared) newID() SpanID {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.nextID++
	return ts.nextID
}

// Span is one timed operation within a trace. Create roots with
// FlightRecorder.StartTrace and children with StartChild; a nil *Span is
// the disabled form and absorbs every call.
type Span struct {
	shared *traceShared
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu       sync.Mutex
	end      time.Time
	ended    bool
	attrs    []Attr
	children []*Span
	dropped  int // children beyond maxSpanChildren
}

// StartChild opens a child span. Safe to call from multiple goroutines
// on the same parent (points of a sweep run concurrently).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		shared: s.shared,
		id:     s.shared.newID(),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
	s.mu.Lock()
	if len(s.children) >= maxSpanChildren {
		s.dropped++
		s.mu.Unlock()
		return c // still usable (timed, attributed), just not retained
	}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

func (s *Span) setAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	if len(s.attrs) < maxSpanAttrs {
		s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	}
}

// SetString sets a string attribute (replacing any prior value of key).
func (s *Span) SetString(key, v string) { s.setAttr(key, v) }

// SetInt sets an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.setAttr(key, v) }

// SetBool sets a boolean attribute.
func (s *Span) SetBool(key string, v bool) { s.setAttr(key, v) }

// SetError marks the span failed with the error's message.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.setAttr("error", err.Error())
}

// End finishes the span. Ending the root hands the completed tree to the
// flight recorder; children still running at that point appear in the
// dump marked unfinished. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	s.mu.Unlock()
	if s.shared.root == s {
		s.shared.recorder.record(TraceDump{
			TraceID:   s.shared.traceID.String(),
			RequestID: s.shared.requestID,
			Root:      s.dump(s.end),
		})
	}
}

// RequestID returns the request ID the trace was started with ("" on nil).
func (s *Span) RequestID() string {
	if s == nil {
		return ""
	}
	return s.shared.requestID
}

// Trace returns the span's trace ID (0 on nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.shared.traceID
}

// SpanDump is the JSON form of one span in a flight-recorder dump.
type SpanDump struct {
	ID         SpanID         `json:"id"`
	Parent     SpanID         `json:"parent,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Unfinished bool           `json:"unfinished,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanDump     `json:"children,omitempty"`
	Dropped    int            `json:"dropped_children,omitempty"`
}

// TraceDump is one completed trace as retained by the flight recorder.
type TraceDump struct {
	TraceID   string    `json:"trace_id"`
	RequestID string    `json:"request_id,omitempty"`
	Root      SpanDump  `json:"root"`
	Recorded  time.Time `json:"recorded"`
}

// dump snapshots the span subtree. at is the dump instant used to report
// running durations of unfinished descendants.
func (s *Span) dump(at time.Time) SpanDump {
	s.mu.Lock()
	d := SpanDump{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		Start:   s.start,
		Dropped: s.dropped,
	}
	if s.ended {
		d.DurationMS = float64(s.end.Sub(s.start)) / float64(time.Millisecond)
	} else {
		d.Unfinished = true
		d.DurationMS = float64(at.Sub(s.start)) / float64(time.Millisecond)
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.dump(at))
	}
	return d
}

// Find returns the first descendant (or the dump itself) named name, in
// depth-first order, or nil. Test and tooling helper.
func (d *SpanDump) Find(name string) *SpanDump {
	if d.Name == name {
		return d
	}
	for i := range d.Children {
		if f := d.Children[i].Find(name); f != nil {
			return f
		}
	}
	return nil
}

// spanCtxKey carries the active span through a context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp (a nil sp returns ctx as-is).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span, or nil when ctx carries none.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// NewRequestID returns a fresh service request ID ("r-" + 16 hex). Used
// when a request arrives without an X-Request-Id of its own.
func NewRequestID() string {
	return fmt.Sprintf("r-%016x", rand.Uint64())
}

// randUint64 seeds trace IDs (non-cryptographic: IDs only need to be
// unique enough to cross-reference logs).
func randUint64() uint64 { return rand.Uint64() }
