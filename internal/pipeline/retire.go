package pipeline

import (
	"regcache/internal/isa"
	"regcache/internal/obs"
)

// retire commits up to RetireWidth completed instructions in order (at
// most MaxStoresPerCycle stores). Each context retires in its own program
// order from its ROB partition; the shared retire bandwidth is offered to
// the contexts round-robin, rotating the starting context every cycle so
// no context is structurally favoured. A single-context machine reduces
// exactly to the classic single-ROB walk. Retirement trains the
// predictors, frees the previous mapping of each destination architectural
// register (invalidating its register cache entry), and releases
// speculative-state history.
func (pl *Pipeline) retire() {
	retired := 0
	stores := 0
	nt := len(pl.threads)
	for k := 0; k < nt && retired < RetireWidth; k++ {
		tc := &pl.threads[(pl.retireTC+k)%nt]
		for tc.robCount > 0 && retired < RetireWidth {
			u := tc.rob[tc.robHead]
			if u.state != uDone {
				break
			}
			if u.inst.Op == isa.OpStore {
				if stores >= MaxStoresPerCycle {
					break
				}
				// Stores reach earliest retirement StoreRetireDelay cycles
				// after executing, and must find store-buffer space.
				if pl.now < u.resultAt+StoreRetireDelay {
					break
				}
				if !pl.mem.StoreRetire(threadAddr(u.tid, u.memAddr), pl.now) {
					pl.Stats.StoreRetireStalls++
					break
				}
				stores++
			}
			pl.retireOne(tc, u)
			tc.rob[tc.robHead] = nil
			tc.robHead = (tc.robHead + 1) % len(tc.rob)
			tc.robCount--
			retired++
		}
	}
	if nt > 1 {
		pl.retireTC = (pl.retireTC + 1) % nt
	}
}

// retireOne applies the architectural side effects of committing u.
func (pl *Pipeline) retireOne(tc *threadCtx, u *uop) {
	u.state = uRetired
	pl.Stats.Retired++
	tc.stats.Retired++
	if pl.tracer != nil {
		pl.tracePipe(u, obs.StageRetire, pl.now)
	}

	// Architectural read counting for degree-of-use training.
	for i := range u.srcs {
		s := &u.srcs[i]
		if s.isReal() {
			pl.archReads[s.preg]++
		}
	}

	// Queue releases.
	switch u.inst.Op {
	case isa.OpLoad:
		pl.lqCount--
	case isa.OpStore:
		pl.sqCount--
		pl.removeInflightStore(u)
	}

	// Branch predictor training (correct path only).
	switch u.inst.Op {
	case isa.OpBranch:
		tc.yags.Train(u.inst.PC, u.bhrBefore, u.taken)
	case isa.OpRet:
		// The return address stack self-trains via push/pop.
	case isa.OpIndirect:
		tc.ind.Train(u.inst.PC, u.pathBefore, u.nextPC)
	}

	// Free the previous mapping of the destination register: train the
	// degree-of-use predictor with the true use count, invalidate the
	// register cache entry (correctness), and recycle the register.
	if u.hasDest() {
		pl.producers[u.destPreg] = nil
		if old := u.oldPreg; old >= 0 {
			if pc := pl.prodPC[old]; pc != 0 {
				pl.upred.Train(pc, pl.prodSig[old], pl.archReads[old])
			}
			if pl.cache != nil {
				pl.cache.Free(old, pl.now)
			}
			if pl.tlf != nil {
				pl.tlf.Free(old)
			}
			if pl.life != nil {
				pl.life.Free(old, pl.now)
			}
			pl.producers[old] = nil
			pl.freelist.Free(old)
		}
	}
	if pl.cache != nil && u.hasDest() {
		pl.cache.Retire(u.destPreg)
	}

	// Release checkpoint history.
	tc.maps.Commit(u.mapTokAfter)
	tc.exec.Commit(u.execTokAfter)

	// Recycle the uop. Remaining references (consumer srcOps, stale wheel
	// entries) are seq-guarded and will read it as retired.
	pl.freeUop(u)
}
