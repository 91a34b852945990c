package pipeline

import (
	"testing"

	"regcache/internal/core"
	"regcache/internal/isa"
	"regcache/internal/prog"
)

// buildChain assembles a pure serial dependence chain of adds inside an
// infinite loop: every instruction depends on the previous one, so IPC
// directly exposes per-link latency.
func buildChain(t *testing.T, links int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("chain", 1)
	b.Label("L")
	for i := 0; i < links; i++ {
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: isa.IntR(1), Src1: isa.IntR(1), Imm: 1})
	}
	b.EmitBranch(isa.Inst{Op: isa.OpJump}, "L")
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChainBackToBackIssue: a serial chain of 1-cycle ALU ops must sustain
// ~1 IPC under every scheme — dependent instructions issue back-to-back
// through the first bypass stage regardless of register file latency.
func TestChainBackToBackIssue(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Config
	}{
		{"cache", func() Config { return DefaultConfig() }},
		{"mono-3cyc", func() Config {
			c := DefaultConfig()
			c.Scheme = SchemeMonolithic
			c.RFLatency = 3
			return c
		}},
		{"twolevel", func() Config {
			c := DefaultConfig()
			c.Scheme = SchemeTwoLevel
			return c
		}},
	} {
		pl := New(tc.mk(), buildChain(t, 64))
		r := pl.Run(30_000)
		// The unconditional jump adds ~1/65 of non-chain work.
		if r.IPC() < 0.95 || r.IPC() > 1.1 {
			t.Errorf("%s: serial chain IPC = %.3f, want ~1.0", tc.name, r.IPC())
		}
	}
}

// buildMispredictLoop: a branch whose outcome flips by iteration parity —
// strictly alternating, which YAGS learns perfectly — versus an LCG-driven
// coin flip, which it cannot. Used to measure the misprediction loop.
func buildCoin(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("coin", 7)
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: isa.IntR(1), Imm: 99991})
	b.Label("L")
	b.Emit(isa.Inst{Op: isa.OpIMul, Fn: isa.FnMul, Dest: isa.IntR(1), Src1: isa.IntR(1), Imm: 6364136223846793005})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: isa.IntR(1), Src1: isa.IntR(1), Imm: 1442695040888963407})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnShr, Dest: isa.IntR(2), Src1: isa.IntR(1), Imm: 40})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAnd, Dest: isa.IntR(3), Src1: isa.IntR(2), Imm: 1})
	b.EmitBranch(isa.Inst{Op: isa.OpBranch, Fn: isa.FnCmpEQ, Src1: isa.IntR(3)}, "S")
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: isa.IntR(4), Src1: isa.IntR(4), Imm: 1})
	b.Label("S")
	b.EmitBranch(isa.Inst{Op: isa.OpJump}, "L")
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMispredictLoopLength: with a 50/50 branch, the cycles consumed per
// misprediction should be at least the 15-cycle minimum loop of Table 1.
func TestMispredictLoopLength(t *testing.T) {
	pl := New(DefaultConfig(), buildCoin(t))
	r := pl.Run(60_000)
	if r.Stats.Mispredicts < 1000 {
		t.Fatalf("coin flip mispredicted only %d times", r.Stats.Mispredicts)
	}
	// Ideal cycles without mispredicts: the serial LCG chain costs
	// ~4+1 cycles per iteration of ~7 instructions. Measure the extra
	// cycles per mispredict instead: total cycles minus the dataflow bound,
	// divided by mispredicts, must be >= ~10 (resolution overlaps fetch).
	iterations := r.Stats.Retired / 7
	dataflowBound := iterations * 5
	extra := float64(r.Stats.Cycles-dataflowBound) / float64(r.Stats.Mispredicts)
	if extra < 10 {
		t.Errorf("misprediction cost %.1f cycles, expected >= 10 (15-cycle loop overlapped with dataflow)", extra)
	}
	t.Logf("misprediction cost ~%.1f cycles over dataflow bound; %d mispredicts", extra, r.Stats.Mispredicts)
}

// TestRCMissReplayAndFill: force misses and verify the miss path invariants
// (fills equal backing reads; issue suppression cycles recorded; misses
// eventually satisfied).
func TestRCMissReplayAndFill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheCfg = core.Config{Entries: 4, Ways: 1, Insert: core.InsertAlways,
		Replace: core.ReplaceLRU, Index: core.IndexPReg}
	prof, _ := prog.ProfileByName("gzip")
	pl := New(cfg, mustGenerate(t, prof))
	r := pl.Run(30_000)
	if r.Stats.RCMissEvents == 0 {
		t.Fatal("4-entry cache produced no miss events")
	}
	if r.Stats.SuppressedIssueCycles == 0 {
		t.Error("miss events must suppress issue cycles (replay rule)")
	}
	if r.BackingReads == 0 {
		t.Error("misses must read the backing file")
	}
	if r.Cache.Fills == 0 {
		t.Error("misses must fill the cache")
	}
	if r.Cache.Fills > r.BackingReads {
		t.Errorf("fills (%d) exceed backing reads (%d)", r.Cache.Fills, r.BackingReads)
	}
	if r.Stats.PortConflictStalls == 0 {
		t.Error("a tiny cache's misses should have waited for the single backing read port")
	}
}

// TestLoadMissReplays: with a large footprint workload, load-hit
// speculation must cause replays (dependents issued in the shadow of a
// missing load).
func TestLoadMissReplays(t *testing.T) {
	prof, _ := prog.ProfileByName("mcf")
	pl := New(DefaultConfig(), mustGenerate(t, prof))
	r := pl.Run(60_000)
	if r.Stats.LoadMisses == 0 {
		t.Fatal("mcf must miss the data cache")
	}
	if r.Stats.Replays == 0 {
		t.Error("load misses must replay speculatively woken dependents")
	}
}

// TestWrongPathStatistics: recovery must restore architectural counts —
// retired instructions must equal the functional stream length regardless
// of squash volume.
func TestWrongPathStatistics(t *testing.T) {
	prof, _ := prog.ProfileByName("twolf")
	p := mustGenerate(t, prof)
	pl := New(DefaultConfig(), p)
	const n = 50_000
	// Reference functional stream.
	e := prog.NewExec(p)
	refPCs := make([]uint64, n)
	for i := 0; i < n; i++ {
		refPCs[i] = e.PC()
		e.StepInst(p.InstAt(e.PC()))
	}
	idx := 0
	mismatch := false
	pl.RetireHook = func(u *Uop) {
		if idx < n && u.inst.PC != refPCs[idx] {
			mismatch = true
		}
		idx++
	}
	r := pl.Run(n)
	if mismatch {
		t.Fatal("retired stream diverged from the functional reference")
	}
	if r.Stats.Mispredicts == 0 || r.Stats.Squashed == 0 {
		t.Fatal("twolf must mispredict and squash")
	}
}

// TestFreelistConservation: after any run, every physical register is
// either free or referenced by the map table / in-flight state; a leak
// would eventually deadlock rename.
func TestFreelistConservation(t *testing.T) {
	prof, _ := prog.ProfileByName("perlbmk")
	pl := New(DefaultConfig(), mustGenerate(t, prof))
	pl.Run(50_000)
	// ROB empty would be ideal but the machine stops mid-flight; bound the
	// leak instead: free + in-flight (<= ROB) + architected (64) must
	// cover the whole space.
	free := pl.freelist.Len()
	if free+pl.robTotal()+len(pl.frontq)+64 < NumPRegs {
		t.Errorf("possible preg leak: free=%d rob=%d frontq=%d of %d",
			free, pl.robTotal(), len(pl.frontq), NumPRegs)
	}
}

// TestBypassWindows: operandPlan must classify availability windows per
// the two-stage bypass design.
func TestBypassWindows(t *testing.T) {
	cfg := DefaultConfig() // cache scheme: readLat 1
	pl := New(cfg, buildChain(t, 4))
	producer := &uop{state: uExecuting, resultAt: 100, specResult: 100}
	src := &srcOp{reg: isa.IntR(1), producer: producer}
	cases := []struct {
		issue uint64
		want  operandSource
	}{
		{98, srcBypass1},  // exec start 100 = tP... issue+2=100 < tP+1: unavailable
		{99, srcBypass1},  // exec start 101 = tP+1
		{100, srcBypass2}, // exec start 102 = tP+2
		{101, srcStorage}, // cache readable
		{150, srcStorage}, // long after
	}
	// Correct the first case: issue 98 -> exec start 100 = tP: no source.
	cases[0] = struct {
		issue uint64
		want  operandSource
	}{98, srcUnavailable}
	for _, c := range cases {
		if got := pl.operandPlan(src, c.issue, ^uint64(0)); got != c.want {
			t.Errorf("issue %d: plan = %v, want %v", c.issue, got, c.want)
		}
	}
	// Monolithic: hole between bypass and storage windows.
	cfgM := DefaultConfig()
	cfgM.Scheme = SchemeMonolithic
	cfgM.RFLatency = 3
	plM := New(cfgM, buildChain(t, 4))
	casesM := []struct {
		issue uint64
		want  operandSource
	}{
		{96, srcBypass1},     // exec start 100 = tP... issue+4: 96+4=100: unavailable
		{97, srcBypass1},     // 101 = tP+1
		{98, srcBypass2},     // 102 = tP+2
		{99, srcUnavailable}, // the hole
		{102, srcUnavailable},
		{103, srcStorage}, // issue >= tP + L = 103
	}
	casesM[0] = struct {
		issue uint64
		want  operandSource
	}{96, srcUnavailable}
	for _, c := range casesM {
		if got := plM.operandPlan(src, c.issue, ^uint64(0)); got != c.want {
			t.Errorf("mono issue %d: plan = %v, want %v", c.issue, got, c.want)
		}
	}
}
