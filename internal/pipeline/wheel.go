package pipeline

// timingWheel is a calendar-queue scheduler for the cycle loop: a
// power-of-two ring of per-cycle buckets indexed by cycle&mask, with an
// overflow list for the rare event scheduled beyond the horizon. It
// replaces the map[uint64][]T structures the pipeline previously used for
// completion and fill scheduling, eliminating per-cycle map hashing and
// bucket churn: buckets are drained every cycle (Cycle calls due/clear
// unconditionally), so a bucket only ever holds events for one cycle, and
// clearing truncates in place so steady state allocates nothing.
//
// Ordering: within a bucket, events keep their scheduling order — the same
// order the map-based implementation produced for a given cycle — so the
// simulated results are bit-identical. Overflow events for a cycle are
// appended after that cycle's in-horizon events; with the default horizon
// no event in the modeled machine comes close (the longest latency chain
// is an L2-miss merge, ~200 cycles), so overflow exists only as a
// correctness backstop for exotic configurations.
type timingWheel[T any] struct {
	buckets  [][]T
	mask     uint64
	overflow []overflowEvt[T]
}

type overflowEvt[T any] struct {
	at uint64
	ev T
}

// wheelHorizon is the default wheel size in cycles. It should exceed the
// schedule-ahead distance of the common machine configurations: the
// longest is an L2-miss load (~200 cycles). A fill is scheduled when it is
// requested, behind every earlier request for the backing file's ports,
// and missQ allows one outstanding fill per physical register, so a burst
// of misses on a one-port file can push a fill hundreds of cycles out.
// 1024 leaves a wide margin for the common configurations; the overflow
// list takes any fill beyond it.
const wheelHorizon = 1024

// newTimingWheel builds a wheel with the given horizon rounded up to a
// power of two. Every bucket is pre-sized with bucketCap capacity carved
// from one contiguous backing array, so the wheel warms up in two
// allocations instead of growing each of its buckets from nil; a bucket
// that overflows its pre-size reallocates once and keeps the larger
// capacity (clear truncates, it never frees).
func newTimingWheel[T any](horizon, bucketCap int) *timingWheel[T] {
	size := 1
	for size < horizon {
		size <<= 1
	}
	w := &timingWheel[T]{
		buckets: make([][]T, size),
		mask:    uint64(size - 1),
	}
	backing := make([]T, size*bucketCap)
	for i := range w.buckets {
		w.buckets[i] = backing[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return w
}

// schedule enqueues ev for cycle at (which must be strictly after now —
// the cycle loop has already drained this cycle's bucket).
func (w *timingWheel[T]) schedule(now, at uint64, ev T) {
	if at <= now {
		panic("pipeline: timing wheel schedule into the past")
	}
	if at-now > w.mask {
		w.overflow = append(w.overflow, overflowEvt[T]{at: at, ev: ev})
		return
	}
	idx := at & w.mask
	w.buckets[idx] = append(w.buckets[idx], ev)
}

// due returns the events scheduled for cycle now, merging in any due
// overflow events. The returned slice is owned by the wheel; callers
// iterate it and then call clear(now).
func (w *timingWheel[T]) due(now uint64) []T {
	b := w.buckets[now&w.mask]
	if len(w.overflow) > 0 {
		live := w.overflow[:0]
		for _, o := range w.overflow {
			if o.at == now {
				b = append(b, o.ev)
			} else {
				live = append(live, o)
			}
		}
		w.overflow = live
		w.buckets[now&w.mask] = b
	}
	return b
}

// clear empties cycle now's bucket, retaining its capacity.
func (w *timingWheel[T]) clear(now uint64) {
	var zero T
	b := w.buckets[now&w.mask]
	for i := range b {
		b[i] = zero // drop references so pooled objects are not pinned
	}
	w.buckets[now&w.mask] = b[:0]
}

// compEntry is one scheduled completion. The seq snapshot guards against
// uop recycling: a pooled uop reused for a newer instruction changes seq,
// so a stale wheel entry (its instruction squashed after scheduling) is
// detected and skipped rather than completing the wrong instruction.
type compEntry struct {
	u   *uop
	seq uint64
}

// sortCompEntries orders a completion bucket by instruction sequence
// number (oldest first), matching the deterministic order the previous
// sort.Slice produced — but with an allocation-free insertion sort, which
// is also faster at the bucket sizes the 8-wide machine produces.
func sortCompEntries(es []compEntry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && es[j].seq > e.seq {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}
