package pipeline

import (
	"regcache/internal/isa"
	"regcache/internal/obs"
)

// operandSource describes how a source operand will be obtained.
type operandSource int

const (
	srcNone        operandSource = iota // no register / zero register
	srcBypass1                          // bypass network, first stage (pre-cache-write)
	srcBypass2                          // bypass network, second stage
	srcStorage                          // register cache / register file read
	srcUnavailable                      // window violation: consumer must wait/replay
)

// operandPlan classifies how the operand of a uop issuing (or issued) at
// issueCycle obtains its value, given the producer completion time the
// scheduler may assume at cycle now.
func (pl *Pipeline) operandPlan(s *srcOp, issueCycle, now uint64) operandSource {
	if !s.isReal() {
		return srcNone
	}
	p := s.producer
	if p == nil || p.seq != s.prodSeq || p.state == uRetired {
		// Value committed before rename, or the producer retired (possibly
		// recycled for a newer instruction — detected by the seq mismatch).
		return srcStorage
	}
	if p.state != uExecuting && p.state != uDone {
		return srcUnavailable // producer not yet executing (or waiting a fill)
	}
	bypass1, bypass2, storage := pl.valueWindows(p.effectiveResult(now))
	switch {
	case issueCycle == bypass1:
		return srcBypass1
	case issueCycle == bypass2:
		return srcBypass2
	case issueCycle >= storage:
		return srcStorage
	}
	return srcUnavailable
}

// valueWindows returns the issue cycles at which a consumer can obtain the
// value a producer computes in cycle tP. Issue at bypass1 meets the value
// on bypass stage 1 (execution starts at tP+1), issue at bypass2 on stage
// 2 of the Table 1 two-stage network (execution at tP+2), and the storage
// window opens at storage and stays open. operandPlan classifies against
// these windows and wakeBound looks for the next one, so the two cannot
// drift apart.
//
// Storage window: a read may start only after the producer's write
// completes (register files do not forward in-flight writes — covering
// that gap is the bypass network's job, which is why its depth must grow
// with the file latency, Section 2.2). The register cache and the
// two-level L1 write in one cycle (during tP+1), so reads starting at tP+2
// (issue >= tP+1) see the value: no scheduling hole beyond the two bypass
// stages. A monolithic file with latency L writes during tP+1..tP+L, so
// reads legally start at tP+L+1 (issue >= tP+L), leaving a 2L-2 cycle
// hole after the bypass window that delays any consumer that missed it.
func (pl *Pipeline) valueWindows(tP uint64) (bypass1, bypass2, storage uint64) {
	bypass1 = tP - uint64(pl.readLat)
	bypass2 = bypass1 + 1
	storage = tP + 1
	if pl.cfg.Scheme == SchemeMonolithic {
		storage = tP + uint64(pl.cfg.RFLatency)
	}
	return bypass1, bypass2, storage
}

// readStage processes uops issued in the previous cycle: operands are
// validated against actual producer timing (load-hit and cache-miss
// shadows replay here), then acquired from the bypass network, the
// register cache (possibly missing), or the register file. It runs before
// this cycle's select so producers entering execution here wake their
// consumers for back-to-back (bypass stage 1) issue.
func (pl *Pipeline) readStage() {
	// Swap the two read-stage buffers instead of dropping the slice: the
	// buffer drained this cycle becomes next cycle's issue scratch.
	pending := pl.issuedNow
	pl.issuedNow = pl.readBuf[:0]
	pl.readBuf = pending
	for _, u := range pending {
		if u.state != uIssued {
			continue // squashed in the meantime
		}
		pl.resolveOperands(u)
	}
}

// resolveOperands validates and acquires u's operands at its register-read
// stage. Any operand whose availability window closed (its producer's real
// latency exceeded the speculative wakeup assumption) replays the uop.
func (pl *Pipeline) resolveOperands(u *uop) {
	execStart := u.issueCycle + 1 + uint64(pl.readLat)

	// Pass 1: validate every operand window against actual producer times.
	var plan [2]operandSource
	for i := range u.srcs {
		plan[i] = pl.operandPlan(&u.srcs[i], u.issueCycle, u.missKnownAtFloor())
		if plan[i] == srcUnavailable {
			u.state = uInIQ // replay: reissue once the producer is really done
			pl.flag(u)
			pl.Stats.Replays++
			return
		}
	}

	// Pass 2: acquire.
	misses := 0
	for i := range u.srcs {
		s := &u.srcs[i]
		switch plan[i] {
		case srcNone:
			continue
		case srcBypass1:
			pl.Stats.BypassReads++
			pl.Stats.BypassS1Reads++
			if s.producer != nil {
				s.producer.bypassS1++
				s.countedS1 = true
			}
			s.acquired = true
		case srcBypass2:
			pl.Stats.BypassReads++
			if pl.cache != nil {
				pl.cache.NoteBypassUse(s.preg, int(s.set))
			}
			s.acquired = true
		case srcStorage:
			switch pl.cfg.Scheme {
			case SchemeCache:
				tc := &pl.threads[u.tid]
				tc.stats.CacheReads++
				if pl.cache.Read(s.preg, int(s.set), pl.now) {
					tc.stats.CacheHits++
					s.acquired = true
				} else {
					tc.stats.CacheMisses++
					misses++
					pl.requestFill(u, s)
				}
			case SchemeMonolithic, SchemeTwoLevel:
				pl.Stats.RFReads++
				s.acquired = true
			}
		}
		if s.acquired {
			if pl.tlf != nil && s.counted {
				pl.tlf.ConsumerDone(s.preg)
				s.counted = false
			}
			if pl.life != nil {
				pl.life.Read(s.preg, execStart)
			}
		}
	}

	if misses > 0 {
		// Register cache miss: the missing instruction waits at the read
		// stage for its fill(s); everything selected this cycle is
		// squashed back to the window (suppressIssue implements the
		// replay since reads precede selection within the cycle).
		u.state = uWaitFill
		u.fillsLeft = misses
		pl.iqCount--
		pl.suppressIssue = true
		pl.Stats.RCMissEvents++
		if pl.tracer != nil {
			pl.tracePipe(u, obs.StageWaitFill, pl.now)
		}
		return
	}
	pl.beginExecution(u, execStart)
}

// missKnownAtFloor returns the observation cycle for operand validation:
// the read stage sees actual producer latencies (that is what creates the
// replay), so validation always uses real times.
func (u *uop) missKnownAtFloor() uint64 { return ^uint64(0) }

// requestFill requests a backing-file read for the missed operand, merging
// with an outstanding fill of the same register. The backing file grants
// its read ports in arrival order (regfile.BackingFile.Read), so the fill
// is scheduled at request time; the cycles the request waited for a port
// are charged to the machine and to u's context.
func (pl *Pipeline) requestFill(u *uop, s *srcOp) {
	if req := pl.missQ[s.preg]; req != nil {
		req.addWaiter(u)
		return
	}
	req := pl.allocFillReq()
	req.preg, req.set = s.preg, s.set
	req.addWaiter(u)
	pl.missQ[s.preg] = req
	ready, waited := pl.backing.Read(s.preg, pl.now)
	if waited > 0 {
		pl.Stats.PortConflictStalls += waited
		pl.threads[u.tid].stats.PortConflictStalls += waited
		if pl.tracer != nil {
			pl.tracePipe(u, obs.StagePortStall, pl.now)
		}
	}
	pl.fills.schedule(pl.now, ready, req)
}

// processFills completes backing-file reads whose data arrives this cycle:
// the value is written into the register cache and waiting instructions
// resume execution directly (the fill bypasses to them, Figure 3).
func (pl *Pipeline) processFills() {
	reqs := pl.fills.due(pl.now)
	if len(reqs) == 0 {
		return
	}
	for _, req := range reqs {
		pl.missQ[req.preg] = nil
		pl.cache.Fill(req.preg, int(req.set), pl.now)
		for i := range req.waiters {
			w := req.waiters[i].u
			if w.seq != req.waiters[i].seq || w.state != uWaitFill {
				continue // squashed (and possibly recycled)
			}
			w.fillsLeft--
			if w.fillsLeft == 0 {
				pl.beginExecution(w, pl.now+1)
			}
		}
		pl.freeFillReq(req)
	}
	pl.fills.clear(pl.now)
}

// beginExecution starts u's execution at execStart, computing its actual
// completion time (loads probe the data cache; store-to-load forwarding
// from in-flight stores applies).
func (pl *Pipeline) beginExecution(u *uop, execStart uint64) {
	if u.state == uInIQ || u.state == uIssued {
		pl.iqCount--
	}
	u.state = uExecuting
	u.execStart = execStart
	pl.wakeConsumers(u)
	if pl.tracer != nil {
		pl.tracePipe(u, obs.StageExecute, execStart)
	}
	lat := u.inst.Op.Latency()
	u.specResult = execStart + uint64(lat) - 1
	u.resultAt = u.specResult
	u.missKnownAt = execStart
	if u.inst.Op == isa.OpLoad {
		extra := pl.loadExtra(u, execStart)
		u.resultAt += uint64(extra)
		// The scheduler sees the real latency only when the hit-assumed
		// data would have arrived — dependents issued before then ride the
		// load-hit speculation shadow and replay (Section 5.2 analogy).
		u.missKnownAt = u.specResult
		if extra > 0 {
			pl.Stats.LoadMisses++
		}
	}
	pl.comps.schedule(pl.now, u.resultAt+1, compEntry{u: u, seq: u.seq})
}

// loadExtra returns the cycles beyond the L1-hit load-to-use latency for
// u's load, honouring store-to-load forwarding from older in-flight stores
// of the same context (contexts never share data addresses).
func (pl *Pipeline) loadExtra(u *uop, execStart uint64) int {
	line := u.memAddr >> 6
	for _, st := range pl.inflightStores {
		if st.tid == u.tid && st.seq < u.seq && st.state != uSquashed && st.memAddr>>6 == line {
			return 0
		}
	}
	return pl.mem.LoadLatency(threadAddr(u.tid, u.memAddr), execStart)
}

// processCompletions retires execution for uops whose results appeared at
// the end of the previous cycle: values are presented to the register
// cache (insertion policy) or register file, and resolving branches
// trigger misprediction recovery.
func (pl *Pipeline) processCompletions() {
	comps := pl.comps.due(pl.now)
	if len(comps) == 0 {
		return
	}
	sortCompEntries(comps)
	for _, e := range comps {
		u := e.u
		if u.seq != e.seq || u.state != uExecuting {
			continue // squashed while executing (and possibly recycled)
		}
		u.state = uDone
		if pl.tracer != nil {
			pl.tracePipe(u, obs.StageWriteback, pl.now)
		}
		pl.writeback(u)
		if u.inst.Op.IsBranch() && u.mispredicted {
			pl.recover(u)
		}
	}
	pl.comps.clear(pl.now)
}

// writeback presents u's produced value to the register storage. For the
// cache scheme the insertion decision sees the remaining-use count after
// bypass-stage-1 consumers (Section 3.1); every value is written to the
// backing file regardless.
func (pl *Pipeline) writeback(u *uop) {
	if !u.hasDest() {
		return
	}
	if pl.life != nil {
		pl.life.Write(u.destPreg, u.resultAt)
	}
	switch pl.cfg.Scheme {
	case SchemeCache:
		pl.backing.NoteWrite(u.destPreg, u.resultAt)
		remaining := u.predUses - u.bypassS1
		if remaining < 0 {
			remaining = 0
		}
		if u.pinned {
			remaining = u.predUses
		}
		pl.cache.Produce(u.destPreg, int(u.destSet), remaining, u.pinned, u.bypassS1 > 0, pl.now)
	case SchemeMonolithic:
		pl.Stats.RFWrites++
	case SchemeTwoLevel:
		pl.tlf.Produced(u.destPreg)
		pl.Stats.RFWrites++
	}
}

// recover squashes everything younger than the mispredicted branch b in
// its own context, restores that context's rename map, functional state,
// and predictor histories, and redirects its fetch down the correct path.
// Other contexts' in-flight instructions are untouched.
func (pl *Pipeline) recover(b *uop) {
	tc := &pl.threads[b.tid]
	pl.Stats.Mispredicts++
	tc.stats.Mispredicts++

	// Squash front-end uops of b's context (all fetched after b), keeping
	// other contexts' entries in their fetch order. Compaction into the
	// backing array's head is safe: the write index never passes the read
	// index (frontq is a suffix of frontqBuf).
	live := pl.frontqBuf[:0]
	for _, u := range pl.frontq {
		if u.tid == b.tid {
			pl.squash(u)
		} else {
			live = append(live, u)
		}
	}
	pl.frontq = live

	// Squash the context's ROB entries younger than b, youngest first.
	for tc.robCount > 0 {
		tail := (tc.robHead + tc.robCount - 1) % len(tc.rob)
		u := tc.rob[tail]
		if u.seq <= b.seq {
			break
		}
		pl.squash(u)
		tc.rob[tail] = nil
		tc.robCount--
	}

	// Restore rename and functional state to just after b.
	tc.maps.Rollback(b.mapTokAfter)
	tc.exec.Rollback(b.execTokAfter)
	// Rewind the definition counter so correct-path renames stay aligned
	// with the oracle pre-pass (defIdx is the post-uop counter state).
	tc.defCounter = b.defIdx

	// Restore predictor state (corrected with b's actual outcome).
	tc.yags.SetHistory(b.bhrBefore)
	if b.inst.Op.IsCond() {
		tc.yags.UpdateHistory(b.taken)
	}
	tc.ind.SetPath(b.pathBefore)
	if b.taken {
		tc.ind.UpdatePath(b.nextPC)
	}
	tc.ras.Restore(b.rasTop, b.rasDepth)

	// Two-level: values migrated to L2 that any context's restored map
	// exposes must be copied back; rename stalls for the uncovered portion.
	extraStall := 0
	if pl.tlf != nil {
		visible := pl.tlfVisible[:0]
		for t := range pl.threads {
			m := pl.threads[t].maps
			for i := 0; i < isa.NumArchRegs; i++ {
				visible = append(visible, m.Lookup(isa.Reg(i+1)).PReg)
			}
		}
		pl.tlfVisible = visible
		extraStall = pl.tlf.Recover(visible)
	}

	tc.fetchLost = false
	tc.lastFetchLine = 0
	restart := pl.now + 1 + uint64(extraStall)
	if restart > tc.fetchStallUntil {
		tc.fetchStallUntil = restart
	}
	pl.compactIQ()
}

// squash cancels one in-flight uop, releasing every resource it claimed.
func (pl *Pipeline) squash(u *uop) {
	switch u.state {
	case uInIQ, uIssued:
		pl.iqCount--
	}
	if u.state != uInFrontEnd {
		switch u.inst.Op {
		case isa.OpLoad:
			pl.lqCount--
		case isa.OpStore:
			pl.sqCount--
			pl.removeInflightStore(u)
		}
	}
	if pl.tlf != nil {
		for i := range u.srcs {
			s := &u.srcs[i]
			if s.counted {
				pl.tlf.ConsumerDone(s.preg)
				s.counted = false
			}
		}
		if u.oldPreg >= 0 {
			pl.tlf.Unremapped(u.oldPreg)
		}
	}
	for i := range u.srcs {
		s := &u.srcs[i]
		if s.countedS1 {
			pl.Stats.WrongPathS1Counts++
			if p := s.producer; p != nil && p.seq == s.prodSeq &&
				p.state != uDone && p.state != uRetired && p.bypassS1 > 0 {
				pl.Stats.WrongPathS1Undoable++
			}
		}
	}
	pl.wakeConsumers(u)
	if u.hasDest() {
		if pl.cache != nil {
			pl.cache.Free(u.destPreg, pl.now)
		}
		if pl.tlf != nil {
			pl.tlf.Free(u.destPreg)
		}
		pl.producers[u.destPreg] = nil
		pl.freelist.Free(u.destPreg)
	}
	u.state = uSquashed
	pl.Stats.Squashed++
	pl.threads[u.tid].stats.Squashed++
	if pl.tracer != nil {
		pl.tracePipe(u, obs.StageSquash, pl.now)
	}
	// Recycle the uop. recover compacts the issue queue before fetch can
	// reuse it, and every longer-lived reference is seq-guarded.
	pl.freeUop(u)
}

// removeInflightStore deletes u from the in-flight store list by swapping
// the last element into its slot. Order does not matter: loadExtra scans
// the whole list for any older same-context store to the same line, so the
// result is independent of element order, and swap-remove makes deletion
// O(1) instead of an O(n) mid-slice copy.
func (pl *Pipeline) removeInflightStore(u *uop) {
	stores := pl.inflightStores
	for i, st := range stores {
		if st == u {
			last := len(stores) - 1
			stores[i] = stores[last]
			stores[last] = nil
			pl.inflightStores = stores[:last]
			return
		}
	}
}
