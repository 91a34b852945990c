package pipeline

import (
	"regcache/internal/core"
	"regcache/internal/isa"
)

// uopState tracks an instruction's progress through the backend.
type uopState uint8

const (
	uInFrontEnd uopState = iota // fetched/renamed, waiting out the front-end depth
	uInIQ                       // dispatched, waiting for operands or selection
	uIssued                     // selected; register read next cycle
	uWaitFill                   // register cache miss: waiting for backing-file fill(s)
	uExecuting                  // operands acquired; completes at resultAt
	uDone                       // executed; waiting for retirement
	uRetired
	uSquashed
)

// srcOp is one source operand after rename.
type srcOp struct {
	reg       isa.Reg
	preg      core.PReg
	set       int16
	producer  *uop   // in-flight producer, nil when the value was committed before rename
	prodSeq   uint64 // producer's seq at rename; a mismatch means it retired and was recycled
	counted   bool   // two-level: pending-consumer count includes this operand
	acquired  bool   // operand latched (hit, bypass, or completed fill)
	countedS1 bool   // this operand incremented its producer's bypass-stage-1 count
}

// isReal reports whether the operand names a readable register.
func (s *srcOp) isReal() bool { return s.reg != isa.RegNone && !s.reg.IsZeroReg() }

// uop is one in-flight instruction.
type uop struct {
	seq  uint64
	tid  int32 // hardware context that fetched this instruction
	inst *isa.Inst

	// Functional outcome (execute-at-fetch): the parts of prog.Step the
	// timing model reads.
	memAddr uint64 // loads/stores: word-aligned effective address
	nextPC  uint64 // actual next PC

	// Rename results.
	destPreg core.PReg // -1 when no destination
	oldPreg  core.PReg // previous mapping of the destination archreg (-1 if none)
	destSet  int16
	predUses int  // clamped predicted degree of use
	pinned   bool // prediction saturated at MaxUse
	srcs     [2]srcOp

	// Speculation checkpoints (state after this instruction).
	execTokAfter int
	mapTokAfter  int
	rasTop       int
	rasDepth     int
	bhrBefore    uint64 // YAGS history when the prediction was made
	pathBefore   uint64 // indirect path history when the prediction was made

	// Branch outcome and prediction.
	taken        bool // conditional branches: actual direction
	predTaken    bool
	mispredicted bool

	// Timing.
	state       uopState
	fu          fuClass // function-unit pool, fixed at rename
	iqPos       int32   // slot in pl.iq while in the window (compactIQ moves it)
	parked      int32   // head of the list of consumers parked until this uop executes (0: none)
	readyAt     uint64  // front end: earliest dispatch cycle
	issueCycle  uint64
	execStart   uint64
	resultAt    uint64 // last execution cycle (result available at its end)
	specResult  uint64 // hit-assumed resultAt used for speculative wakeup (loads)
	missKnownAt uint64 // cycle from which the scheduler sees the real latency

	// Register cache interactions.
	bypassS1  int // consumers issued for bypass-stage-1 delivery (pre-write)
	fillsLeft int // outstanding backing-file fills for this uop's operands

	defIdx uint64 // definition-counter state after this uop (oracle mode)

	robIdx int
}

// hasDest reports whether the uop allocates a physical register.
func (u *uop) hasDest() bool { return u.destPreg >= 0 }

// effectiveResult returns the producer completion time the scheduler may
// assume at cycle now: loads advertise their hit-assumed time until the
// miss becomes visible (load-hit speculation), everything else is exact.
func (u *uop) effectiveResult(now uint64) uint64 {
	if u.state == uExecuting && u.resultAt != u.specResult && now < u.missKnownAt {
		return u.specResult
	}
	return u.resultAt
}
