package isa

import (
	"testing"
	"testing/quick"
)

func TestRegClassification(t *testing.T) {
	if !IntZero.IsZeroReg() || !FPZero.IsZeroReg() {
		t.Error("zero registers not recognized")
	}
	if IntR(5).IsZeroReg() {
		t.Error("r5 is not a zero register")
	}
	if !FPR(8).IsFP() || IntR(5).IsFP() {
		t.Error("FP classification wrong")
	}
	if RegNone.Valid() || !FPR(31).Valid() || Reg(65).Valid() {
		t.Error("validity classification wrong")
	}
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{IntR(0): "r0", IntR(31): "r31", FPR(0): "f0", FPR(31): "f31", RegNone: "--"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestOpClassification(t *testing.T) {
	branches := []Op{OpBranch, OpJump, OpCall, OpRet, OpIndirect}
	for _, o := range branches {
		if !o.IsBranch() {
			t.Errorf("%v should be a branch", o)
		}
	}
	for _, o := range []Op{OpIAlu, OpLoad, OpStore, OpNop} {
		if o.IsBranch() {
			t.Errorf("%v should not be a branch", o)
		}
	}
	if !OpBranch.IsCond() || OpJump.IsCond() {
		t.Error("conditional classification wrong")
	}
	if !OpRet.IsIndirect() || !OpIndirect.IsIndirect() || OpBranch.IsIndirect() {
		t.Error("indirect classification wrong")
	}
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpIAlu.IsMem() {
		t.Error("memory classification wrong")
	}
}

func TestLatenciesMatchTable1(t *testing.T) {
	cases := map[Op]int{
		OpIAlu: 1, OpIMul: 4, OpFAlu: 3, OpFMul: 4, OpFDiv: 18,
		OpLoad: 4, OpBranch: 2, OpJump: 2, OpCall: 2, OpRet: 2, OpIndirect: 2,
	}
	for op, want := range cases {
		if got := op.Latency(); got != want {
			t.Errorf("%v latency = %d, want %d", op, got, want)
		}
	}
}

func TestEvalALU(t *testing.T) {
	cases := []struct {
		fn     Fn
		imm    int64
		s1, s2 uint64
		want   uint64
	}{
		{FnAdd, 0, 3, 4, 7},
		{FnSub, 0, 10, 4, 6},
		{FnAnd, 0, 0b1100, 0b1010, 0b1000},
		{FnOr, 0, 0b1100, 0b1010, 0b1110},
		{FnXor, 0, 0b1100, 0b1010, 0b0110},
		{FnShl, 0, 1, 4, 16},
		{FnShr, 0, 16, 4, 1},
		{FnShl, 0, 1, 64, 1}, // shift counts wrap mod 64
		{FnMul, 0, 6, 7, 42},
		{FnLoadImm, -5, 0, 0, ^uint64(0) - 4}, // two's-complement -5
		{FnMov, 0, 99, 0, 99},
		{FnCmpEQ, 0, 5, 5, 1},
		{FnCmpEQ, 0, 5, 6, 0},
		{FnCmpNE, 0, 5, 6, 1},
		{FnCmpLT, 0, ^uint64(0), 0, 1},
		{FnCmpGE, 0, ^uint64(0), 0, 0},
	}
	for _, c := range cases {
		if got := EvalALU(c.fn, c.imm, c.s1, c.s2); got != c.want {
			t.Errorf("EvalALU(%v, %d, %d, %d) = %d, want %d", c.fn, c.imm, c.s1, c.s2, got, c.want)
		}
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		fn   Fn
		s1   uint64
		want bool
	}{
		{FnCmpEQ, 0, true},
		{FnCmpEQ, 1, false},
		{FnCmpNE, 1, true},
		{FnCmpNE, 0, false},
		{FnCmpLT, ^uint64(0) - 2, true},
		{FnCmpLT, 3, false},
		{FnCmpGE, 0, true},
		{FnCmpGE, ^uint64(0), false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.fn, c.s1); got != c.want {
			t.Errorf("BranchTaken(%v, %d) = %v, want %v", c.fn, c.s1, got, c.want)
		}
	}
}

// Property: CmpEQ and CmpNE are complementary both as values and as branch
// conditions.
func TestCompareComplementProperty(t *testing.T) {
	f := func(s1, s2 uint64) bool {
		eq := EvalALU(FnCmpEQ, 0, s1, s2)
		ne := EvalALU(FnCmpNE, 0, s1, s2)
		return eq+ne == 1 && BranchTaken(FnCmpEQ, s1) != BranchTaken(FnCmpNE, s1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CmpLT and CmpGE partition the integers.
func TestOrderingComplementProperty(t *testing.T) {
	f := func(s1, s2 uint64) bool {
		lt := EvalALU(FnCmpLT, 0, s1, s2)
		ge := EvalALU(FnCmpGE, 0, s1, s2)
		return lt+ge == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstHelpers(t *testing.T) {
	in := Inst{Op: OpIAlu, Fn: FnAdd, Dest: IntR(3), Src1: IntR(1), Src2: IntR(2), PC: 0x1000}
	if !in.HasDest() {
		t.Error("register write should count as a dest")
	}
	if in.FallThrough() != 0x1004 {
		t.Error("fall-through wrong")
	}
	zero := Inst{Op: OpIAlu, Fn: FnAdd, Dest: IntZero, Src1: IntR(1)}
	if zero.HasDest() {
		t.Error("write to zero register should not count as a dest")
	}
	none := Inst{Op: OpJump}
	if none.HasDest() {
		t.Error("no-operand instruction misclassified")
	}
}

func TestInstString(t *testing.T) {
	insts := []Inst{
		{Op: OpNop},
		{Op: OpIAlu, Fn: FnAdd, Dest: IntR(1), Src1: IntR(2), Src2: IntR(3)},
		{Op: OpLoad, Dest: IntR(1), Src1: IntR(2), Imm: 8},
		{Op: OpStore, Src1: IntR(2), Src2: IntR(3), Imm: 8},
		{Op: OpBranch, Fn: FnCmpNE, Src1: IntR(1), Target: 0x2000},
		{Op: OpJump, Target: 0x2000},
		{Op: OpCall, Dest: RA, Target: 0x2000},
		{Op: OpRet, Src1: RA},
		{Op: OpIndirect, Src1: IntR(4)},
	}
	for _, in := range insts {
		if in.String() == "" {
			t.Errorf("empty String() for op %v", in.Op)
		}
	}
}
