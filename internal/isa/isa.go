// Package isa defines the micro-ISA executed by the simulator: a 64-bit
// RISC register machine with 32 integer and 32 floating-point architectural
// registers, two-source/one-destination instructions, displacement-mode
// loads and stores, and a compare-register branch family.
//
// The ISA deliberately models the properties the register-caching study
// consumes — architectural def/use per instruction, branch outcomes, and
// memory addresses — rather than any particular commercial encoding. It is
// the stand-in for the Alpha ISA used in the paper (see DESIGN.md).
package isa

import "fmt"

// Reg names an architectural register operand slot. The zero value is
// RegNone (no operand), so zero-valued Inst fields never create phantom
// dependencies. Integer registers r0..r31 are encoded 1..32 and
// floating-point registers f0..f31 as 33..64; use IntR/FPR to construct
// them and Index for dense array indexing. IntZero and FPZero read as zero
// and discard writes (like Alpha R31/F31).
type Reg uint8

// Architectural register constants.
const (
	NumIntRegs  = 32
	NumFPRegs   = 32
	NumArchRegs = NumIntRegs + NumFPRegs

	RegNone Reg = 0 // unused operand slot (the Reg zero value)
)

// Named registers by software convention.
var (
	IntZero = IntR(31) // integer register that is always zero
	FPZero  = FPR(31)  // floating-point register that is always zero
	SP      = IntR(30) // stack pointer
	RA      = IntR(26) // return address
)

// IntR returns the Reg for integer register i (0..31).
func IntR(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register %d out of range", i))
	}
	return Reg(i + 1)
}

// FPR returns the Reg for floating-point register i (0..31).
func FPR(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register %d out of range", i))
	}
	return Reg(i + 1 + NumIntRegs)
}

// Index returns the dense architectural index 0..63 of a valid register.
func (r Reg) Index() int { return int(r) - 1 }

// IsZeroReg reports whether r is a hardwired-zero register.
func (r Reg) IsZeroReg() bool { return r == IntZero || r == FPZero }

// Valid reports whether r names a real architectural register.
func (r Reg) Valid() bool { return r >= 1 && r <= NumArchRegs }

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r > NumIntRegs && r <= NumArchRegs }

// String renders the register in assembly style (r0..r31, f0..f31).
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "--"
	case r.IsFP():
		return fmt.Sprintf("f%d", r.Index()-NumIntRegs)
	case r.Valid():
		return fmt.Sprintf("r%d", r.Index())
	default:
		return fmt.Sprintf("reg?%d", uint8(r))
	}
}

// Op is the opcode class of an instruction. The class determines the
// function unit, the execution latency, and the broad functional behaviour;
// the Fn field of an Inst selects the precise operation within the class.
type Op uint8

// Opcode classes (Table 1 execution resources).
const (
	OpNop      Op = iota
	OpIAlu        // integer add/sub/logical/shift/compare: 1 cycle
	OpIMul        // integer multiply: 4 cycles
	OpFAlu        // floating-point add/sub/convert/compare: 3 cycles
	OpFMul        // floating-point multiply: 4 cycles
	OpFDiv        // floating-point divide: 18 cycles
	OpLoad        // memory load: 4-cycle load-to-use on an L1 hit
	OpStore       // memory store: executes address+data, writes at retire
	OpBranch      // conditional direct branch: 2-cycle resolution
	OpJump        // unconditional direct jump
	OpCall        // direct call: writes return address, pushes RAS
	OpRet         // indirect jump through the return address: pops RAS
	OpIndirect    // computed indirect jump (switch tables, function pointers)
	numOps
)

var opNames = [numOps]string{
	"nop", "ialu", "imul", "falu", "fmul", "fdiv",
	"load", "store", "br", "jmp", "call", "ret", "ijmp",
}

// String returns the mnemonic class name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// IsBranch reports whether the opcode redirects control flow.
func (o Op) IsBranch() bool {
	switch o {
	case OpBranch, OpJump, OpCall, OpRet, OpIndirect:
		return true
	}
	return false
}

// IsCond reports whether the opcode is a conditional branch.
func (o Op) IsCond() bool { return o == OpBranch }

// IsIndirect reports whether the branch target comes from a register.
func (o Op) IsIndirect() bool { return o == OpRet || o == OpIndirect }

// IsMem reports whether the opcode accesses data memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// Latency returns the execution latency in cycles for the opcode class,
// matching Table 1 of the paper. Loads return the L1-hit load-to-use
// latency; the memory system adds miss penalties.
func (o Op) Latency() int {
	switch o {
	case OpIAlu, OpNop:
		return 1
	case OpIMul:
		return 4
	case OpFAlu:
		return 3
	case OpFMul:
		return 4
	case OpFDiv:
		return 18
	case OpLoad:
		return 4
	case OpStore:
		return 1 // address generation; data is written at retirement
	case OpBranch, OpJump, OpCall, OpRet, OpIndirect:
		return 2 // branch resolution unit
	}
	return 1
}

// Fn selects the precise operation within an opcode class.
type Fn uint8

// Integer and floating-point function selectors. Branch classes reuse the
// comparison selectors to decide taken/not-taken from SrcVal1.
// For every two-operand selector the effective second operand is the Src2
// register value when Src2 is a real register, and the immediate otherwise
// (register-or-literal form, as on Alpha).
const (
	FnAdd     Fn = iota // dest = s1 + s2eff
	FnSub               // dest = s1 - s2eff
	FnAnd               // dest = s1 & s2eff
	FnOr                // dest = s1 | s2eff
	FnXor               // dest = s1 ^ s2eff
	FnShl               // dest = s1 << (s2eff & 63)
	FnShr               // dest = s1 >> (s2eff & 63)
	FnMul               // dest = s1 * s2eff (also the FMul/FDiv behaviour stand-in)
	FnLoadImm           // dest = imm
	FnMov               // dest = s1
	FnCmpEQ             // dest = 1 if s1 == s2eff else 0; branch: taken if s1 == 0
	FnCmpNE             // dest = 1 if s1 != s2eff else 0; branch: taken if s1 != 0
	FnCmpLT             // dest = 1 if int64(s1) <  int64(s2eff); branch: s1 < 0
	FnCmpGE             // dest = 1 if int64(s1) >= int64(s2eff); branch: s1 >= 0
	numFns
)

var fnNames = [numFns]string{
	"add", "sub", "and", "or", "xor", "shl", "shr", "mul",
	"li", "mov", "cmpeq", "cmpne", "cmplt", "cmpge",
}

// String returns the selector mnemonic.
func (f Fn) String() string {
	if int(f) < len(fnNames) {
		return fnNames[f]
	}
	return fmt.Sprintf("fn?%d", uint8(f))
}

// Inst is one static instruction. Instructions are 4 bytes for PC
// arithmetic purposes (InstBytes).
type Inst struct {
	PC     uint64
	Op     Op
	Fn     Fn
	Dest   Reg    // RegNone when the instruction produces no register value
	Src1   Reg    // RegNone when unused
	Src2   Reg    // RegNone when unused
	Imm    int64  // displacement for memory ops, literal for ALU ops
	Target uint64 // taken target for direct branches, calls, jumps
}

// InstBytes is the architectural size of one instruction.
const InstBytes = 4

// HasDest reports whether the instruction writes a (non-zero) architectural
// register.
func (in *Inst) HasDest() bool {
	return in.Dest != RegNone && !in.Dest.IsZeroReg()
}

// FallThrough returns the next sequential PC.
func (in *Inst) FallThrough() uint64 { return in.PC + InstBytes }

// String renders the instruction in a readable assembly-like form.
func (in *Inst) String() string {
	switch in.Op {
	case OpNop:
		return fmt.Sprintf("%08x: nop", in.PC)
	case OpLoad:
		return fmt.Sprintf("%08x: load %s, %d(%s)", in.PC, in.Dest, in.Imm, in.Src1)
	case OpStore:
		return fmt.Sprintf("%08x: store %s, %d(%s)", in.PC, in.Src2, in.Imm, in.Src1)
	case OpBranch:
		return fmt.Sprintf("%08x: br.%s %s, %08x", in.PC, in.Fn, in.Src1, in.Target)
	case OpJump:
		return fmt.Sprintf("%08x: jmp %08x", in.PC, in.Target)
	case OpCall:
		return fmt.Sprintf("%08x: call %08x", in.PC, in.Target)
	case OpRet:
		return fmt.Sprintf("%08x: ret %s", in.PC, in.Src1)
	case OpIndirect:
		return fmt.Sprintf("%08x: ijmp %s", in.PC, in.Src1)
	default:
		return fmt.Sprintf("%08x: %s.%s %s, %s, %s, #%d",
			in.PC, in.Op, in.Fn, in.Dest, in.Src1, in.Src2, in.Imm)
	}
}

// EvalALU computes the result of a non-memory, non-branch instruction given
// its first source value and the *effective* second operand (Src2 register
// value, or the immediate when Src2 is RegNone — see the Fn constants).
// Memory and branch behaviour live in the functional executor (package
// prog), which owns architectural memory and the PC.
func EvalALU(fn Fn, imm int64, s1, s2 uint64) uint64 {
	switch fn {
	case FnAdd:
		return s1 + s2
	case FnSub:
		return s1 - s2
	case FnAnd:
		return s1 & s2
	case FnOr:
		return s1 | s2
	case FnXor:
		return s1 ^ s2
	case FnShl:
		return s1 << (s2 & 63)
	case FnShr:
		return s1 >> (s2 & 63)
	case FnMul:
		return s1 * s2
	case FnLoadImm:
		return uint64(imm)
	case FnMov:
		return s1
	case FnCmpEQ:
		if s1 == s2 {
			return 1
		}
		return 0
	case FnCmpNE:
		if s1 != s2 {
			return 1
		}
		return 0
	case FnCmpLT:
		if int64(s1) < int64(s2) {
			return 1
		}
		return 0
	case FnCmpGE:
		if int64(s1) >= int64(s2) {
			return 1
		}
		return 0
	}
	return 0
}

// BranchTaken decides a conditional branch outcome from the first source
// value, Alpha-style (compare against zero).
func BranchTaken(fn Fn, s1 uint64) bool {
	switch fn {
	case FnCmpEQ:
		return s1 == 0
	case FnCmpNE:
		return s1 != 0
	case FnCmpLT:
		return int64(s1) < 0
	case FnCmpGE:
		return int64(s1) >= 0
	}
	return false
}
