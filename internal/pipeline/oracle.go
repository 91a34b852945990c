package pipeline

import (
	"regcache/internal/isa"
	"regcache/internal/prog"
)

// Oracle degree-of-use: the paper motivates use-based management with
// "given perfect a priori knowledge of the upcoming uses of values, only
// live values need be maintained in the cache" (Section 3). The oracle
// mode supplies that perfect knowledge: a functional pre-pass records the
// true architectural read count of every correct-path definition, and
// rename consumes the table instead of the history-based predictor.
//
// Speculative paths are handled exactly: each uop records the def index at
// its rename, and misprediction recovery rewinds the index, so correct-path
// renames always line up with the pre-pass (wrong-path renames read
// arbitrary table slots, which mirrors a real oracle's ignorance of wrong
// paths and is harmless — those values are squashed).
//
// An OracleTable depends only on (program, instruction budget), never on
// the machine configuration, so one table serves every oracle scheme run
// against the same workload. The sim layer builds tables once per process
// through its workload cache (BuildOracle + SetOracle); a pipeline whose
// table was not injected builds its own on first Run.
type OracleTable struct {
	uses []uint8 // per correct-path definition, saturated at 255
}

// BuildOracle functionally executes maxInsts (plus slack for partial
// in-flight work) instructions and records each definition's true use
// count in definition order. The table is immutable after construction
// and safe to share across concurrently running pipelines.
func BuildOracle(p *prog.Program, maxInsts uint64) *OracleTable {
	total := maxInsts + maxInsts/4 + 4096
	e := prog.NewExec(p)
	t := &OracleTable{uses: make([]uint8, 0, total)}
	// defOf[r] is the table index of architectural register r's current
	// definition; -1 when the initial value is current.
	var defOf [isa.NumArchRegs]int
	for i := range defOf {
		defOf[i] = -1
	}
	for i := uint64(0); i < total; i++ {
		in := p.InstAt(e.PC())
		if in == nil {
			break
		}
		e.StepInst(in)
		// The pre-pass never rolls back: commit so the undo log stays
		// empty instead of growing two entries per instruction.
		e.Commit(e.Checkpoint())
		for _, r := range [...]isa.Reg{in.Src1, in.Src2} {
			if r != isa.RegNone && !r.IsZeroReg() {
				if d := defOf[r.Index()]; d >= 0 && t.uses[d] < 255 {
					t.uses[d]++
				}
			}
		}
		if in.HasDest() {
			defOf[in.Dest.Index()] = len(t.uses)
			t.uses = append(t.uses, 0)
		}
	}
	return t
}

// lookup returns the true degree of use for the defIdx-th definition, or
// false when the index is beyond the pre-pass horizon.
func (t *OracleTable) lookup(defIdx uint64) (int, bool) {
	if defIdx >= uint64(len(t.uses)) {
		return 0, false
	}
	return int(t.uses[defIdx]), true
}
