package prog

import (
	"fmt"

	"regcache/internal/isa"
)

// Step describes the functional outcome of executing one instruction: the
// source values read, the result produced, the branch decision, and the
// memory address touched. The timing simulator records Steps at rename time
// (execute-at-fetch style) and uses them to drive branch resolution and the
// memory system.
type Step struct {
	Inst    *isa.Inst
	S1, S2  uint64 // source values (0 for unused slots)
	Result  uint64 // destination value (loads: loaded value)
	Taken   bool   // conditional branches only
	NextPC  uint64 // actual next PC
	MemAddr uint64 // word-aligned effective address for loads/stores
}

// Exec is the functional executor: architectural registers plus sparse
// memory with three layers — the store overlay, the program's static image,
// and the procedural initial-memory hash. It supports speculative execution
// with undo-log rollback so the timing pipeline can run down mispredicted
// paths and recover exactly.
type Exec struct {
	prog *Program
	regs [isa.NumArchRegs]uint64
	mem  map[uint64]memCell
	pc   uint64
	log  []undoRec
	head int // index of the first uncommitted record in log
	base int // virtual position of log[0]; tokens are base-relative
}

// memCell is one word of the store overlay.
type memCell struct {
	val uint64
}

// undoRec reverses one architectural state change.
type undoRec struct {
	isMem   bool
	isPC    bool
	addrReg uint64 // memory address, register number, or old PC
	oldVal  uint64
	hadVal  bool // memory only: whether the overlay held a value before
}

// NewExec creates an executor positioned at the program entry with the
// stack pointer initialized.
func NewExec(p *Program) *Exec {
	e := &Exec{
		prog: p,
		mem:  make(map[uint64]memCell, 1024),
		pc:   p.Entry(),
	}
	e.regs[isa.SP] = StackBase
	return e
}

// ExecState is a portable snapshot of the committed architectural state:
// registers, the store overlay, and the program counter. It is the whole
// checkpoint needed to resume functional execution — everything else in an
// Exec (the undo log) is speculation bookkeeping that an architectural
// boundary by definition has none of.
type ExecState struct {
	Regs [isa.NumArchRegs]uint64
	Mem  map[uint64]uint64
	PC   uint64
}

// State deep-copies the current architectural state. It must be taken at a
// committed point (no uncommitted undo-log entries); interval checkpointing
// takes it from a purely functional pre-pass, which never speculates.
func (e *Exec) State() ExecState {
	if e.LogLen() != 0 {
		panic("prog: State taken with uncommitted speculative work")
	}
	st := ExecState{Regs: e.regs, PC: e.pc, Mem: make(map[uint64]uint64, len(e.mem))}
	for a, c := range e.mem {
		st.Mem[a] = c.val
	}
	return st
}

// NewExecAt creates an executor positioned at a previously captured state.
// The state is copied, so one snapshot can seed any number of executors
// (the interval runner starts K pipelines from shared checkpoints).
func NewExecAt(p *Program, st ExecState) *Exec {
	e := &Exec{
		prog: p,
		regs: st.Regs,
		mem:  make(map[uint64]memCell, len(st.Mem)+1024),
		pc:   st.PC,
	}
	for a, v := range st.Mem {
		e.mem[a] = memCell{val: v}
	}
	return e
}

// PC returns the current program counter.
func (e *Exec) PC() uint64 { return e.pc }

// Reg returns the architectural value of r (zero registers read as zero).
func (e *Exec) Reg(r isa.Reg) uint64 {
	if r == isa.RegNone || r.IsZeroReg() {
		return 0
	}
	return e.regs[r.Index()]
}

// Load returns the 64-bit word at addr, consulting the store overlay, then
// the static image, then the procedural initial-memory function.
func (e *Exec) Load(addr uint64) uint64 {
	addr &^= 7
	if c, ok := e.mem[addr]; ok {
		return c.val
	}
	if v, ok := e.prog.Image[addr]; ok {
		return v
	}
	return HashMem(e.prog.MemSeed, addr)
}

// store writes a word, recording an undo entry.
func (e *Exec) store(addr, val uint64) {
	addr &^= 7
	old, had := e.mem[addr]
	e.log = append(e.log, undoRec{isMem: true, addrReg: addr, oldVal: old.val, hadVal: had})
	e.mem[addr] = memCell{val: val}
}

// setReg writes a register, recording an undo entry. Writes to zero
// registers are discarded (no undo entry needed).
func (e *Exec) setReg(r isa.Reg, val uint64) {
	if r == isa.RegNone || r.IsZeroReg() {
		return
	}
	e.log = append(e.log, undoRec{addrReg: uint64(r.Index()), oldVal: e.regs[r.Index()]})
	e.regs[r.Index()] = val
}

// setPC moves the program counter, recording an undo entry.
func (e *Exec) setPC(pc uint64) {
	e.log = append(e.log, undoRec{isPC: true, addrReg: e.pc})
	e.pc = pc
}

// Checkpoint returns a token capturing the current speculative depth.
// Rolling back to the token undoes every architectural change made since.
// Tokens are virtual positions: they remain valid across Commit calls.
func (e *Exec) Checkpoint() int { return e.base + len(e.log) }

// Rollback undoes all changes made after the checkpoint token was taken.
// The token must not predate the last Commit.
func (e *Exec) Rollback(token int) {
	idx := token - e.base
	if idx < e.head || idx > len(e.log) {
		panic(fmt.Sprintf("prog: bad rollback token %d (base %d, head %d, log %d)", token, e.base, e.head, len(e.log)))
	}
	for i := len(e.log) - 1; i >= idx; i-- {
		u := e.log[i]
		switch {
		case u.isMem:
			if u.hadVal {
				e.mem[u.addrReg] = memCell{val: u.oldVal}
			} else {
				delete(e.mem, u.addrReg)
			}
		case u.isPC:
			e.pc = u.addrReg
		default:
			e.regs[u.addrReg] = u.oldVal
		}
	}
	e.log = e.log[:idx]
}

// Commit discards undo history older than the checkpoint token, declaring
// everything before it architecturally final. Later tokens remain valid;
// rolling back past the commit point becomes impossible. The timing
// simulator commits at retirement to keep the undo log bounded.
//
// Commit only advances a head index; the retained tail is compacted to
// the front of the buffer when the dead prefix dominates, so per-retire
// cost is amortized O(1) instead of an O(live-window) copy.
func (e *Exec) Commit(token int) {
	idx := token - e.base
	if idx <= e.head {
		return
	}
	if idx > len(e.log) {
		idx = len(e.log)
	}
	e.head = idx
	if e.head >= 64 && e.head >= len(e.log)-e.head {
		n := copy(e.log, e.log[e.head:])
		e.log = e.log[:n]
		e.base += e.head
		e.head = 0
	}
}

// LogLen returns the current uncommitted undo-log length (exported for
// tests and for the pipeline's token bookkeeping).
func (e *Exec) LogLen() int { return len(e.log) - e.head }

// ForcePC redirects the program counter, recording an undo entry. The
// timing pipeline uses this to steer execution down the *predicted* path
// after a functionally resolved branch disagrees with the prediction;
// rollback at recovery restores the correct-path PC.
func (e *Exec) ForcePC(pc uint64) { e.setPC(pc) }

// StepInst executes in (which must be the instruction at the current PC)
// and advances the PC to the functional next PC. All architectural changes
// are undo-logged.
func (e *Exec) StepInst(in *isa.Inst) Step {
	s := Step{Inst: in, S1: e.Reg(in.Src1), S2: e.Reg(in.Src2)}
	next := in.FallThrough()
	switch in.Op {
	case isa.OpNop:
	case isa.OpIAlu, isa.OpIMul, isa.OpFAlu, isa.OpFMul, isa.OpFDiv:
		s2eff := s.S2
		if in.Src2 == isa.RegNone {
			s2eff = uint64(in.Imm)
		}
		s.Result = isa.EvalALU(in.Fn, in.Imm, s.S1, s2eff)
		e.setReg(in.Dest, s.Result)
	case isa.OpLoad:
		s.MemAddr = (s.S1 + uint64(in.Imm)) &^ 7
		s.Result = e.Load(s.MemAddr)
		e.setReg(in.Dest, s.Result)
	case isa.OpStore:
		s.MemAddr = (s.S1 + uint64(in.Imm)) &^ 7
		e.store(s.MemAddr, s.S2)
	case isa.OpBranch:
		s.Taken = isa.BranchTaken(in.Fn, s.S1)
		if s.Taken {
			next = in.Target
		}
	case isa.OpJump:
		s.Taken = true
		next = in.Target
	case isa.OpCall:
		s.Taken = true
		s.Result = in.FallThrough()
		e.setReg(in.Dest, s.Result)
		next = in.Target
	case isa.OpRet, isa.OpIndirect:
		s.Taken = true
		next = s.S1
	default:
		panic(fmt.Sprintf("prog: unknown opcode %v", in.Op))
	}
	s.NextPC = next
	e.setPC(next)
	return s
}
