package pipeline

// Object pooling for the cycle loop's two transient heap types, uops and
// fill requests. Both are recycled through per-pipeline free lists so the
// steady-state loop allocates nothing (see the AllocsPerRun gates in
// bench_stage_test.go); peak live objects are bounded by the machine's window
// (ROB + front-end queue) rather than the instruction budget, which also
// removes the dominant GC pressure of long runs.
//
// Recycling invariant: a uop pointer may be held across arbitrary
// distances (consumer srcOps, fill waiters, timing-wheel buckets), so
// every long-lived reference carries a seq snapshot taken when the
// reference was created. A recycled uop is reused for a *newer*
// instruction and therefore gets a larger seq; stale references detect
// the mismatch and treat the instruction as gone (retired/squashed),
// exactly the semantics the non-recycling implementation produced by
// leaving the object reachable in its terminal state.

// uopRef is a seq-guarded reference to a possibly-recycled uop.
type uopRef struct {
	u   *uop
	seq uint64
}

// addWaiter records u as waiting on this fill.
func (r *fillReq) addWaiter(u *uop) {
	r.waiters = append(r.waiters, uopRef{u: u, seq: u.seq})
}

// allocFillReq takes a fill request from the free list (or allocates one
// while the pool is still warming up).
func (pl *Pipeline) allocFillReq() *fillReq {
	if n := len(pl.fillFree); n > 0 {
		req := pl.fillFree[n-1]
		pl.fillFree[n-1] = nil
		pl.fillFree = pl.fillFree[:n-1]
		return req
	}
	return &fillReq{}
}

// freeFillReq recycles a completed fill request. Requests are enqueued on
// the fill wheel exactly once and recycled only after their bucket is
// processed, so no stale wheel reference can remain.
func (pl *Pipeline) freeFillReq(req *fillReq) {
	for i := range req.waiters {
		req.waiters[i] = uopRef{} // drop uop references
	}
	req.waiters = req.waiters[:0]
	pl.fillFree = append(pl.fillFree, req)
}

// allocUop takes a uop from the free list, falling back to the block
// allocator while the pool warms up. The returned uop is fully zeroed
// except for its new seq, assigned by the caller.
func (pl *Pipeline) allocUop() *uop {
	if n := len(pl.uopFree); n > 0 {
		u := pl.uopFree[n-1]
		pl.uopFree[n-1] = nil
		pl.uopFree = pl.uopFree[:n-1]
		return u
	}
	if pl.uopNext == len(pl.uopBlock) {
		pl.uopBlock = make([]uop, uopBlockSize)
		pl.uopNext = 0
	}
	u := &pl.uopBlock[pl.uopNext]
	pl.uopNext++
	return u
}

// freeUop recycles a uop that reached a terminal state (retired or
// squashed). The object stays valid memory — stale references elsewhere
// read its fields safely and reject it by seq once it is reused.
func (pl *Pipeline) freeUop(u *uop) {
	pl.uopFree = append(pl.uopFree, u)
}

// uopBlockSize is the block-allocator granularity backing the uop pool.
// Steady state recycles via the free list; blocks are only allocated
// while the in-flight window is still growing toward its maximum.
const uopBlockSize = 1024

// prewarmFillPool stocks the fill-request free list up front: n requests
// with waiterCap-capacity waiter slices carved from two bulk allocations.
// Outstanding fills are bounded by the misses in flight (at most one per
// physical register), so a modest pool covers steady state and
// allocFillReq's fallback (plus waiter-slice regrowth, both retained on
// recycle) absorbs the exceptions.
func (pl *Pipeline) prewarmFillPool(n, waiterCap int) {
	reqs := make([]fillReq, n)
	backing := make([]uopRef, n*waiterCap)
	pl.fillFree = make([]*fillReq, 0, n+8)
	for i := range reqs {
		reqs[i].waiters = backing[i*waiterCap : i*waiterCap : (i+1)*waiterCap]
		pl.fillFree = append(pl.fillFree, &reqs[i])
	}
}
