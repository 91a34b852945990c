// Package obs is the simulator's observability plane: a structured
// event-trace interface threaded through the pipeline stages and the
// register cache, sinks that render those events as a Chrome trace_event
// timeline or an NDJSON analysis log, a unified metrics registry exposed
// over expvar, and an optional HTTP debug server mounting expvar and pprof.
//
// The package sits below every simulator layer (it depends only on the
// standard library and internal/stats), so internal/core, internal/pipeline,
// and internal/sim can all emit into it without import cycles. Tracing is
// strictly opt-in: components hold a nil Tracer by default and guard every
// emission with a nil check, so the untraced hot path costs one predictable
// branch and zero allocations.
package obs

// CacheEventKind identifies one register cache event.
type CacheEventKind uint8

// Register cache events. The stream reconstructs every per-residency
// distribution the paper reports: remaining uses at eviction (Figure 5),
// residency lifetimes (Table 2), and the filtered/capacity/conflict miss
// split (Figure 8).
const (
	CacheWrite         CacheEventKind = iota // initial write at writeback
	CacheFill                                // fill after a backing-file read
	CacheHit                                 // read hit
	CacheMiss                                // read miss (MissKind classifies it)
	CacheEvict                               // replacement victim leaves (Uses = remaining)
	CacheInvalidate                          // invalidate-on-free removal
	CacheWriteFiltered                       // insertion policy skipped the initial write
	CachePin                                 // entry inserted pinned (prediction saturated)
	CacheBypassUse                           // bypass satisfied a use of a resident entry
	NumCacheEventKinds
)

func (k CacheEventKind) String() string {
	switch k {
	case CacheWrite:
		return "write"
	case CacheFill:
		return "fill"
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheEvict:
		return "evict"
	case CacheInvalidate:
		return "invalidate"
	case CacheWriteFiltered:
		return "write-filtered"
	case CachePin:
		return "pin"
	case CacheBypassUse:
		return "bypass-use"
	}
	return "cache?"
}

// CacheEvent is one register cache event. It is passed by value through the
// Tracer interface so emission never allocates.
type CacheEvent struct {
	Cycle    uint64
	Kind     CacheEventKind
	PReg     int32
	Set      int16
	Uses     int16 // remaining-use count after the event applied
	MissKind int8  // core.MissKind for CacheMiss (0 filtered, 1 capacity, 2 conflict); -1 otherwise
	Pinned   bool
}

// MissKindName names a CacheEvent.MissKind without importing internal/core.
func MissKindName(k int8) string {
	switch k {
	case 0:
		return "filtered"
	case 1:
		return "capacity"
	case 2:
		return "conflict"
	}
	return "none"
}

// PipeStage identifies one pipeline stage transition of a uop.
type PipeStage uint8

// Pipeline stages, in program-flow order. StageRetire and StageSquash are
// terminal: a uop emits no further events after either.
const (
	StageRename    PipeStage = iota // fetched, functionally executed, renamed
	StageDispatch                   // entered the issue window / ROB
	StageIssue                      // selected for execution
	StageWaitFill                   // stalled at register read on a cache miss
	StagePortStall                  // fill deferred by backing-file read-port arbitration
	StageExecute                    // operands acquired; executing
	StageWriteback                  // result produced, presented to register storage
	StageRetire                     // committed (terminal)
	StageSquash                     // cancelled on a misprediction (terminal)
)

func (s PipeStage) String() string {
	switch s {
	case StageRename:
		return "rename"
	case StageDispatch:
		return "dispatch"
	case StageIssue:
		return "issue"
	case StageWaitFill:
		return "waitfill"
	case StagePortStall:
		return "portstall"
	case StageExecute:
		return "execute"
	case StageWriteback:
		return "writeback"
	case StageRetire:
		return "retire"
	case StageSquash:
		return "squash"
	}
	return "stage?"
}

// Terminal reports whether the stage ends the uop's event stream.
func (s PipeStage) Terminal() bool { return s == StageRetire || s == StageSquash }

// PipeEvent is one pipeline stage transition: uop Seq entered Stage at
// Cycle. Passed by value so emission never allocates.
type PipeEvent struct {
	Cycle uint64
	Stage PipeStage
	Seq   uint64
	PC    uint64
	Op    string
}

// Tracer receives simulator events. Implementations must tolerate events
// from a single goroutine in simulation order; they are not required to be
// concurrency-safe (one pipeline is single-threaded). Components hold a nil
// Tracer when tracing is off and skip emission entirely.
type Tracer interface {
	TraceCache(CacheEvent)
	TracePipe(PipeEvent)
}

// MultiTracer fans events out to several tracers in order.
type MultiTracer []Tracer

// TraceCache implements Tracer.
func (m MultiTracer) TraceCache(e CacheEvent) {
	for _, t := range m {
		t.TraceCache(e)
	}
}

// TracePipe implements Tracer.
func (m MultiTracer) TracePipe(e PipeEvent) {
	for _, t := range m {
		t.TracePipe(e)
	}
}

// Combine returns a single Tracer over the non-nil arguments: nil when none
// remain, the tracer itself for one, a MultiTracer otherwise.
func Combine(ts ...Tracer) Tracer {
	var live MultiTracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
