package pipeline

import (
	"regcache/internal/isa"
	"regcache/internal/obs"
	"regcache/internal/regfile"
	"regcache/internal/usepred"
)

// fetchThread picks the context the front end serves this cycle. A
// single-context machine always serves context 0 (subject to its stall
// state — exactly the pre-multithreading behaviour). With multiple
// contexts the pointer round-robins every InterleaveGranularity fetched
// instructions, and a context that cannot fetch (redirect pending,
// I-cache stall) yields its slot to the next fetchable one immediately
// rather than idling the machine.
func (pl *Pipeline) fetchThread() *threadCtx {
	if len(pl.threads) == 1 {
		tc := &pl.threads[0]
		if tc.fetchLost || pl.now < tc.fetchStallUntil {
			return nil
		}
		return tc
	}
	if pl.threads[pl.fetchTC].fetchRun >= pl.cfg.InterleaveGranularity {
		pl.threads[pl.fetchTC].fetchRun = 0
		pl.fetchTC = (pl.fetchTC + 1) % len(pl.threads)
	}
	for i := 0; i < len(pl.threads); i++ {
		t := (pl.fetchTC + i) % len(pl.threads)
		tc := &pl.threads[t]
		if tc.fetchLost || pl.now < tc.fetchStallUntil {
			continue
		}
		pl.fetchTC = t
		return tc
	}
	return nil
}

// fetch runs the front end for one cycle: up to FetchWidth instructions
// are fetched along the selected context's predicted path, functionally
// executed, branch-predicted, and renamed. Renamed uops wait out the
// front-end depth in frontq before dispatch. Fetching stops at a taken
// branch (one taken branch per fetch block), an I-cache miss, or a
// resource stall.
func (pl *Pipeline) fetch() {
	tc := pl.fetchThread()
	if tc == nil {
		return
	}
	for n := 0; n < FetchWidth; n++ {
		if len(pl.frontq) >= FrontQCap {
			pl.Stats.FrontQStalls++
			return
		}
		pc := tc.exec.PC()
		inst := tc.prog.InstAt(pc)
		if inst == nil {
			// Wrong-path fetch into unmapped memory: stall for redirect.
			tc.fetchLost = true
			pl.Stats.FetchLostCycles++
			return
		}
		// I-cache: probe on line crossings.
		if line := pc >> 6; line != tc.lastFetchLine {
			if lat := pl.mem.FetchLatency(threadAddr(tc.id, pc), pl.now); lat > 0 {
				tc.fetchStallUntil = pl.now + uint64(lat)
				pl.Stats.ICacheStallCycles += uint64(lat)
				return
			}
			tc.lastFetchLine = line
		}
		// Resource checks that gate rename.
		if inst.HasDest() {
			if pl.freelist.Len() == 0 {
				pl.Stats.FreelistStalls++
				return
			}
			if pl.tlf != nil && !pl.tlf.CanAllocate() {
				pl.tlf.NoteRenameStall()
				return
			}
		}
		u := pl.renameOne(tc, inst)
		if len(pl.frontq) == cap(pl.frontq) {
			// Dispatch pops by re-slicing the head forward, so the queue
			// marches down the backing array; compact the live entries back
			// to its front rather than letting append reallocate.
			buf := pl.frontqBuf[:len(pl.frontq)]
			copy(buf, pl.frontq)
			pl.frontq = buf
		}
		pl.frontq = append(pl.frontq, u)
		pl.Stats.Fetched++
		tc.stats.Fetched++
		tc.fetchRun++
		if u.predTaken {
			return // one taken branch per fetch block
		}
	}
}

// renameOne functionally executes and renames the instruction at the
// context's current PC, steering its front end down the predicted path.
func (pl *Pipeline) renameOne(tc *threadCtx, inst *isa.Inst) *uop {
	pl.seq++
	u := pl.allocUop()
	// Clear in place and set fields one by one: assigning a composite
	// literal builds the large uop in a temporary and copies it over.
	*u = uop{}
	u.seq = pl.seq
	u.tid = tc.id
	u.inst = inst
	u.destPreg, u.oldPreg = -1, -1
	u.state = uInFrontEnd
	u.fu = classOf(inst.Op)
	u.readyAt = pl.now + FrontEndDepth
	u.bhrBefore = tc.yags.History()
	u.pathBefore = tc.ind.Path()
	// Functional execution (execute-at-fetch, undo-logged). The recovery
	// token is captured between the architectural step and any predicted-
	// path redirect so that rolling back to it restores the correct-path
	// PC while keeping the instruction's own effects.
	st := tc.exec.StepInst(inst)
	u.memAddr, u.nextPC, u.taken = st.MemAddr, st.NextPC, st.Taken
	u.execTokAfter = tc.exec.Checkpoint()

	// Branch prediction decides the fetch path.
	pl.predictBranch(tc, u)

	// Rename sources: capture current mappings and in-flight producers.
	si := 0
	for _, r := range [...]isa.Reg{inst.Src1, inst.Src2} {
		s := srcOp{reg: r}
		if s.isReal() {
			m := tc.maps.Lookup(r)
			s.preg = m.PReg
			s.set = m.Set
			if p := pl.producers[m.PReg]; p != nil {
				s.producer = p
				s.prodSeq = p.seq
			}
			pl.Stats.SrcOperands++
			if pl.tlf != nil {
				pl.tlf.AddConsumer(m.PReg)
				s.counted = true
			}
		}
		u.srcs[si] = s
		si++
	}

	// Rename destination: allocate a physical register and a cache set.
	if inst.HasDest() {
		p, ok := pl.freelist.Alloc()
		if !ok {
			panic("pipeline: freelist exhausted after check")
		}
		u.destPreg = p
		pl.producers[p] = u
		// The predictor table is shared across contexts; per-context PC
		// signatures keep distinct threads' histories from aliasing while
		// context 0 trains on raw PCs (T=1 bit-identity).
		predPC := usepred.ThreadPC(inst.PC, int(tc.id))
		pl.prodPC[p] = predPC
		pl.prodSig[p] = u.bhrBefore
		pl.archReads[p] = 0

		// Degree-of-use prediction (or the oracle's perfect knowledge).
		var rawUses int
		if tc.oracle != nil {
			idx := tc.defCounter
			tc.defCounter++
			if n, ok := tc.oracle.lookup(idx); ok {
				rawUses = n
			} else {
				rawUses = -1
			}
		} else {
			pred, ok := pl.upred.Predict(predPC, u.bhrBefore)
			rawUses = int(pred)
			if !ok {
				rawUses = -1 // unknown
			}
		}
		set := 0
		if pl.cache != nil {
			if rawUses < 0 {
				rawUses = pl.cache.UnknownDefault()
				pl.Stats.UnknownPredictions++
			}
			u.predUses = pl.cache.ClampUses(rawUses)
			u.pinned = pl.cache.Pins(u.predUses)
			set = pl.cache.Allocate(p, u.predUses)
		}
		u.destSet = int16(set)
		old := tc.maps.Redefine(inst.Dest, regfile.Mapping{PReg: p, Set: int16(set)})
		u.oldPreg = old.PReg
		if pl.tlf != nil {
			pl.tlf.Allocate(p)
			if old.PReg >= 0 {
				pl.tlf.Remapped(old.PReg)
			}
		}
		if pl.life != nil {
			pl.life.Alloc(p, pl.now)
		}
		pl.Stats.Renamed++
	}

	u.mapTokAfter = tc.maps.Checkpoint()
	u.defIdx = tc.defCounter
	if pl.tracer != nil {
		pl.tracePipe(u, obs.StageRename, pl.now)
	}
	return u
}

// predictBranch applies the context's front-end predictors and redirects
// its functional executor down the predicted path when it disagrees with
// the just-computed actual outcome.
func (pl *Pipeline) predictBranch(tc *threadCtx, u *uop) {
	inst := u.inst
	actualNext := u.nextPC
	switch inst.Op {
	case isa.OpBranch:
		pred := tc.yags.Predict(inst.PC)
		tc.yags.UpdateHistory(pred)
		u.predTaken = pred
		predNext := inst.FallThrough()
		if pred {
			predNext = inst.Target
			tc.ind.UpdatePath(inst.Target)
		}
		if pred != u.taken {
			u.mispredicted = true
			tc.exec.ForcePC(predNext)
		}
	case isa.OpJump:
		u.predTaken = true // perfect BTB: direct targets never mispredict
		tc.ind.UpdatePath(inst.Target)
	case isa.OpCall:
		u.predTaken = true
		tc.ras.Push(inst.FallThrough())
		tc.ind.UpdatePath(inst.Target)
	case isa.OpRet:
		u.predTaken = true
		predNext, ok := tc.ras.Pop()
		if !ok {
			predNext = inst.FallThrough()
		}
		tc.ind.UpdatePath(predNext)
		if predNext != actualNext {
			u.mispredicted = true
			tc.exec.ForcePC(predNext)
		}
	case isa.OpIndirect:
		u.predTaken = true
		predNext, ok := tc.ind.Predict(inst.PC)
		if !ok {
			predNext = inst.FallThrough()
		}
		tc.ind.UpdatePath(predNext)
		if predNext != actualNext {
			u.mispredicted = true
			tc.exec.ForcePC(predNext)
		}
	default:
		return
	}
	u.rasTop, u.rasDepth = tc.ras.Mark()
	if u.mispredicted {
		pl.Stats.PredictedWrong++
	}
}

// dispatch moves front-end uops that have waited out the pipeline depth
// into the issue window, reorder buffer, and load/store queues. The ROB is
// partitioned per context; a full partition blocks the (shared, in-order)
// front-end queue head just like a full load queue does.
func (pl *Pipeline) dispatch() {
	n := 0
	for len(pl.frontq) > 0 && n < FetchWidth {
		u := pl.frontq[0]
		if u.readyAt > pl.now {
			break
		}
		tc := &pl.threads[u.tid]
		if tc.robCount >= len(tc.rob) || pl.iqCount >= IQSize {
			pl.Stats.DispatchStalls++
			return
		}
		switch u.inst.Op {
		case isa.OpLoad:
			if pl.lqCount >= LQSize {
				pl.Stats.DispatchStalls++
				return
			}
			pl.lqCount++
		case isa.OpStore:
			if pl.sqCount >= SQSize {
				pl.Stats.DispatchStalls++
				return
			}
			pl.sqCount++
			pl.inflightStores = append(pl.inflightStores, u)
		}
		pl.frontq = pl.frontq[1:]
		if len(pl.frontq) == 0 {
			pl.frontq = pl.frontqBuf[:0] // rewind to the backing array head
		}
		u.state = uInIQ
		u.robIdx = (tc.robHead + tc.robCount) % len(tc.rob)
		tc.rob[u.robIdx] = u
		tc.robCount++
		pl.enterWindow(u)
		pl.iqCount++
		if pl.tracer != nil {
			pl.tracePipe(u, obs.StageDispatch, pl.now)
		}
		n++
	}
}
