package pipeline

import (
	"math/bits"

	"regcache/internal/obs"
)

// Event-driven select. Issue does not rescan the window every cycle: it
// walks a bitmap of the window slots that might issue (pl.ready, oldest
// slot first by trailing-zero count) and evaluates only those. An entry
// that cannot issue is parked where it will be found again, so every uop
// in uInIQ is in exactly one of three places:
//
//   - flagged: its bit in pl.ready is set, at dispatch, on a read-stage
//     replay, and when a wake fires;
//   - parked on a producer that has not started executing, until that
//     producer's beginExecution (or its squash, which squashed the
//     consumer first);
//   - holding one timed wake, at a lower bound of the first cycle at which
//     all its operands can be available (wakeBound).
//
// An entry that is ready but finds its function units taken, or lies past
// the cycle's issue width, stays flagged. The selection is the one a scan
// of the whole window in age order makes, because a slot that is not
// flagged cannot pass issuable this cycle.
//
// Park lists and wake buckets are singly linked lists threaded through one
// node slab with a free list, so the steady state allocates nothing. Nodes
// hold seq-guarded references; a node whose uop was squashed (and perhaps
// recycled) is dropped when it comes due.

// wakeMask indexes the timed-wake wheel, one bucket per cycle over
// wheelHorizon cycles.
const wakeMask = wheelHorizon - 1

// parkNode is one waiting uop on a producer's park list or in a wake
// bucket, linked to the next node by slab index (0 ends a list).
type parkNode struct {
	ref  uopRef
	next int32
}

// initSelect sizes the select structures for the configured window. The
// slot count is bounded by compaction: at most twice the window plus 32
// slots survive a cycle's select, and dispatch adds at most FetchWidth
// before the next one. Nodes number one per waiting entry plus those left
// by squashed consumers; twice the window covers every built-in benchmark
// (the high-water mark is 190 nodes), and the slab grows if it must.
func (pl *Pipeline) initSelect() {
	slots := 2*IQSize + 32 + FetchWidth
	pl.iq = make([]uopRef, 0, slots)
	pl.ready = make([]uint64, 0, (slots+63)/64)
	pl.nodes = make([]parkNode, 1, 2*IQSize)
	pl.wakeAt = make([]int32, wheelHorizon)
}

// issuable reports whether every operand of u can be obtained if it issues
// at the current cycle (speculative wakeup: loads advertise hit timing).
func (pl *Pipeline) issuable(u *uop) bool {
	for i := range u.srcs {
		if pl.operandPlan(&u.srcs[i], pl.now, pl.now) == srcUnavailable {
			return false
		}
	}
	return true
}

// issue selects up to IssueWidth ready instructions, oldest first, subject
// to function-unit availability. Issue is suppressed entirely in a cycle
// that detected a register cache miss (the paper's replay rule: everything
// issued in the cycle after a missing instruction issues is replayed).
func (pl *Pipeline) issue() {
	pl.wakeDue()
	if pl.suppressIssue {
		pl.Stats.SuppressedIssueCycles++
		return
	}
	pl.fuUsed = [numFUClasses]int{}
	issued := 0
	width := IssueWidth
	for w := 0; w < len(pl.ready) && issued < width; w++ {
		for word := pl.ready[w]; word != 0 && issued < width; word &= word - 1 {
			bit := word & -word
			e := pl.iq[w<<6|bits.TrailingZeros64(word)]
			u := e.u
			if u.seq != e.seq || u.state != uInIQ {
				pl.ready[w] &^= bit // squashed (and possibly recycled)
				continue
			}
			if pl.fuUsed[u.fu] >= fuCap[u.fu] {
				continue // stays flagged for the next cycle
			}
			pl.ready[w] &^= bit
			if !pl.issuable(u) {
				pl.park(u)
				continue
			}
			pl.fuUsed[u.fu]++
			u.state = uIssued
			u.issueCycle = pl.now
			pl.issuedNow = append(pl.issuedNow, u)
			if pl.tracer != nil {
				pl.tracePipe(u, obs.StageIssue, pl.now)
			}
			issued++
		}
	}
	pl.Stats.Issued += uint64(issued)
	if len(pl.iq) > pl.iqCount*2+32 {
		pl.compactIQ()
	}
}

// enterWindow appends u to the issue window and flags it for select.
func (pl *Pipeline) enterWindow(u *uop) {
	pos := len(pl.iq)
	pl.iq = append(pl.iq, uopRef{u: u, seq: u.seq})
	if pos>>6 == len(pl.ready) {
		pl.ready = append(pl.ready, 0)
	}
	u.iqPos = int32(pos)
	pl.flag(u)
}

// flag marks u's window slot for evaluation by select.
func (pl *Pipeline) flag(u *uop) {
	pl.ready[u.iqPos>>6] |= 1 << (u.iqPos & 63)
}

// compactIQ removes entries that left the window, carrying the select
// flags of the survivors to their new slots.
func (pl *Pipeline) compactIQ() {
	n := 0
	for i, e := range pl.iq {
		bit := uint64(1) << (i & 63)
		flagged := pl.ready[i>>6]&bit != 0
		pl.ready[i>>6] &^= bit
		u := e.u
		if u.seq != e.seq || (u.state != uInIQ && u.state != uIssued) {
			continue
		}
		pl.iq[n] = e
		u.iqPos = int32(n)
		if flagged {
			pl.flag(u)
		}
		n++
	}
	clear(pl.iq[n:]) // drop stale references
	pl.iq = pl.iq[:n]
}

// park files u, which cannot issue this cycle, until it might: on the
// producer of an operand that has not started executing, or else on a
// timed wake at the latest of its operands' lower bounds.
func (pl *Pipeline) park(u *uop) {
	at := pl.now + 1
	for i := range u.srcs {
		p, t := pl.wakeBound(&u.srcs[i], pl.now)
		if p != nil {
			p.parked = pl.newNode(u, p.parked)
			return
		}
		at = max(at, t)
	}
	// Waking early is always safe (the entry parks again), so a bound
	// beyond the wheel's horizon is clamped to it.
	at = min(at, pl.now+wakeMask)
	b := &pl.wakeAt[at&wakeMask]
	*b = pl.newNode(u, *b)
}

// wakeBound says when operand s, if it is unavailable at cycle now, can
// next be available. A producer that has not started executing is
// returned: beginExecution wakes the consumers parked on it. Otherwise the
// bound is a cycle c > now no later than the first cycle at which
// operandPlan(s, c, c) is not srcUnavailable: the earliest of the next
// window valueWindows opens after now, the cycle a load's miss becomes
// visible (moving the result time the scheduler sees), and the earliest
// retirement, after which storage serves the value (closing the
// monolithic file's hole). An operand available at now returns now.
func (pl *Pipeline) wakeBound(s *srcOp, now uint64) (*uop, uint64) {
	if pl.operandPlan(s, now, now) != srcUnavailable {
		return nil, now
	}
	p := s.producer
	if p.state != uExecuting && p.state != uDone {
		return p, 0
	}
	tP := p.effectiveResult(now)
	bypass1, bypass2, storage := pl.valueWindows(tP)
	at := storage // unavailable now, so now < storage
	if bypass1 > now && bypass1 < at {
		at = bypass1
	}
	if bypass2 > now && bypass2 < at {
		at = bypass2
	}
	if tP != p.resultAt && p.missKnownAt < at {
		at = p.missKnownAt // tP is the hit-assumed time until then
	}
	if r := max(p.resultAt+2, now+1); r < at {
		at = r
	}
	return nil, at
}

// newNode takes a node for u from the free list, linked in front of next;
// the slab grows only while the pipeline warms up.
func (pl *Pipeline) newNode(u *uop, next int32) int32 {
	i := pl.nodeFree
	if i != 0 {
		pl.nodeFree = pl.nodes[i].next
	} else {
		i = int32(len(pl.nodes))
		pl.nodes = append(pl.nodes, parkNode{})
	}
	pl.nodes[i] = parkNode{ref: uopRef{u: u, seq: u.seq}, next: next}
	return i
}

// wakeAll flags every uop on the list that is still waiting in the window
// and returns the list's nodes to the free list.
func (pl *Pipeline) wakeAll(head int32) {
	for i := head; i != 0; {
		n := &pl.nodes[i]
		if u := n.ref.u; u.seq == n.ref.seq && u.state == uInIQ {
			pl.flag(u)
		}
		next := n.next
		*n = parkNode{next: pl.nodeFree}
		pl.nodeFree = i
		i = next
	}
}

// wakeDue fires the timed wakes that come due this cycle.
func (pl *Pipeline) wakeDue() {
	b := &pl.wakeAt[pl.now&wakeMask]
	head := *b
	*b = 0
	pl.wakeAll(head)
}

// wakeConsumers flags the consumers parked until u starts executing (or,
// when u is squashed, just returns their nodes: they are younger in the
// same context, so they were squashed with it).
func (pl *Pipeline) wakeConsumers(u *uop) {
	pl.wakeAll(u.parked)
	u.parked = 0
}
