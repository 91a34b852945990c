package prog

import (
	"fmt"

	"regcache/internal/isa"
)

// Profile parameterizes the synthetic benchmark generator on exactly the
// statistical program properties the register-caching study depends on:
// degree-of-use distribution, branch predictability, memory locality,
// call/loop structure, and operation mix. Twelve built-in profiles named
// after the SPECint 2000 suite live in profiles.go.
type Profile struct {
	Name string
	Seed uint64

	Funcs        int     // number of functions including main
	SegMin       int     // min segments per function body
	SegMax       int     // max segments per function body
	BlockMin     int     // min instructions per straight-line chunk
	BlockMax     int     // max instructions per straight-line chunk
	MaxLoopDepth int     // maximum loop nesting inside a function
	MeanTrip     int     // mean inner-loop trip count
	MaxTrip      int     // trip count cap
	VarTripFrac  float64 // fraction of loops with data-dependent trip counts

	// Segment type weights (straight-line, loop, if-diamond, call, switch).
	WStraight, WLoop, WDiamond, WCall, WSwitch float64

	// Operation weights within compute chunks.
	WLoad, WStore, WIAlu, WIMul, WFp float64

	// UseDist[i] is the probability a newly produced value has i planned
	// consumers; the final entry is the tail (>= len-1 uses).
	UseDist []float64

	RandomCond    float64 // probability a diamond condition is data-random
	PointerChase  float64 // fraction of loads that random-walk the heap
	FootprintLog2 int     // log2 of global data region size in bytes
	SwitchWays    int     // jump-table arms for switch segments
}

// normalized fills defaulted fields so profiles can be written tersely.
func (p Profile) normalized() Profile {
	if p.SegMin == 0 {
		p.SegMin = 3
	}
	if p.SegMax < p.SegMin {
		p.SegMax = p.SegMin + 4
	}
	if p.BlockMin == 0 {
		p.BlockMin = 3
	}
	if p.BlockMax < p.BlockMin {
		p.BlockMax = p.BlockMin + 5
	}
	if p.MaxLoopDepth == 0 {
		p.MaxLoopDepth = 2
	}
	if p.MeanTrip == 0 {
		p.MeanTrip = 12
	}
	if p.MaxTrip == 0 {
		p.MaxTrip = 64
	}
	if p.Funcs == 0 {
		p.Funcs = 10
	}
	if p.UseDist == nil {
		p.UseDist = DefaultUseDist
	}
	if p.FootprintLog2 == 0 {
		p.FootprintLog2 = 18
	}
	if p.SwitchWays == 0 {
		p.SwitchWays = 8
	}
	if p.WStraight+p.WLoop+p.WDiamond+p.WCall+p.WSwitch == 0 {
		p.WStraight, p.WLoop, p.WDiamond, p.WCall, p.WSwitch = 3, 2, 2, 1, 0.2
	}
	if p.WLoad+p.WStore+p.WIAlu+p.WIMul+p.WFp == 0 {
		p.WLoad, p.WStore, p.WIAlu, p.WIMul, p.WFp = 2.4, 1.1, 6, 0.15, 0.08
	}
	return p
}

// DefaultUseDist matches the degree-of-use characterization of Butts &
// Sohi [5]: most values are consumed exactly once, a meaningful fraction
// are never read, and a thin tail has many consumers.
var DefaultUseDist = []float64{0.08, 0.64, 0.16, 0.06, 0.03, 0.015, 0.01, 0.005}

// Generate builds the synthetic program for a profile. The same profile
// always yields the identical program.
func Generate(p Profile) (*Program, error) {
	p = p.normalized()
	g := &generator{
		prof: p,
		rng:  NewRNG(p.Seed),
		b:    NewBuilder(p.Name, p.Seed^0xdeadbeefcafef00d),
	}
	return g.run()
}

// ThreadProfile derives the per-context profile for hardware context tid
// of a multithreaded workload: the same statistical program shape, but a
// context-salted seed so each context runs its own deterministic
// instruction stream (the multithreaded analogue of running independent
// copies of a benchmark, SMT-style). Context 0 is the identity — thread 0
// of a multithreaded run executes exactly the single-context program.
func ThreadProfile(p Profile, tid int) Profile {
	if tid <= 0 {
		return p
	}
	p.Seed ^= 0x9e3779b97f4a7c15 * uint64(tid)
	p.Name = fmt.Sprintf("%s#t%d", p.Name, tid)
	return p
}

// generator carries the emission state for one program.
type generator struct {
	prof         Profile
	rng          *RNG
	b            *Builder
	labelSeq     int
	tableOff     uint64    // next free slot in the jump-table region
	funcIdx      int       // function currently being generated
	callsEmitted int       // call segments emitted in the current function
	cursors      []isa.Reg // strided-cursor registers of enclosing loops
}

// label returns a fresh unique label with a readable prefix.
func (g *generator) label(prefix string) string {
	g.labelSeq++
	return fmt.Sprintf("%s_%d", prefix, g.labelSeq)
}

func funcLabel(i int) string { return fmt.Sprintf("func_%d", i) }

func (g *generator) run() (*Program, error) {
	g.emitMain()
	for i := 1; i < g.prof.Funcs; i++ {
		g.funcIdx = i
		g.emitFunction(i)
	}
	return g.b.Finish()
}

// ---------------------------------------------------------------------------
// Register allocation during generation.
//
// The allocator shapes the static def-use web: sources are drawn from
// values with planned uses remaining, and destinations reuse registers
// whose planned uses are exhausted. Planned-use counts are sampled from the
// profile's degree-of-use distribution, which is what makes the dynamic
// degree-of-use distribution land where the paper's does.
// ---------------------------------------------------------------------------

// Register budget available to the allocator. SP (r30), the zero register
// (r31), RA (r26), and r25/r27..r29 (generator scratch: entropy state,
// global region base, table base, chase pointer) are reserved.
const allocIntRegs = 25 // r0..r24

var (
	regEnt = isa.IntR(25) // entropy state: an LCG evolved by random branches
	regGB  = isa.IntR(27) // global region base (invariant)
	regTB  = isa.IntR(28) // jump-table base (invariant)
	regPtr = isa.IntR(29) // pointer-chase cursor
)

// LCG constants for the entropy register (Knuth's MMIX multiplier). The
// evolving state makes data-dependent branch outcomes genuinely
// unpredictable per dynamic instance, like hash- or input-driven branches
// in real programs — without it, reloaded static data gives periodic
// outcome sequences that a history predictor learns exactly.
const (
	lcgMul = 6364136223846793005
	lcgAdd = 1442695040888963407
)

type regInfo struct {
	remaining int  // planned uses not yet emitted
	age       int  // generation timestamp of the defining instruction
	reserved  bool // loop counters / cursors: excluded from dest selection
}

type regAlloc struct {
	rng   *RNG
	dist  []float64
	info  [allocIntRegs]regInfo
	fp    [8]regInfo // f0..f7 (arch regs 32..39)
	clock int
}

func newRegAlloc(rng *RNG, dist []float64) *regAlloc {
	return &regAlloc{rng: rng, dist: dist}
}

// sampleUses draws a planned-use count from the profile distribution.
func (a *regAlloc) sampleUses() int { return a.rng.Weighted(a.dist) }

// src picks an integer source register, preferring values with planned uses
// remaining (weighted toward nearly drained values so chains stay tight),
// and decrements the plan. With no live candidates it falls back to the
// global-base invariant, which is always defined.
func (a *regAlloc) src() isa.Reg {
	best := a.pickLive()
	if best < 0 {
		return regGB
	}
	a.info[best].remaining--
	return isa.IntR(best)
}

// pickLive returns a register index with remaining planned uses, or -1.
// Selection is strongly biased toward the most recently defined values:
// real code consumes most results within a few instructions of producing
// them (that is what makes the paper's bypass network satisfy 57% of
// operands and keeps the simultaneously-live value count low). A
// geometric walk from the newest live value gives that shape while the
// planned-use weighting still drains multi-use values over time.
func (a *regAlloc) pickLive() int {
	live := make([]int, 0, len(a.info))
	for i := range a.info {
		if a.info[i].remaining > 0 {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	// Sort live candidates by definition age, newest first (insertion sort
	// over a handful of entries).
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && a.info[live[j]].age > a.info[live[j-1]].age; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	k := 0
	for k < len(live)-1 && !a.rng.Bool(0.7) {
		k++
	}
	return live[k]
}

// dest picks an integer destination register — the oldest register whose
// planned uses are exhausted — and assigns it a fresh planned-use count.
// If every register still has uses planned, the least-recently-defined
// non-reserved register is stolen (its remaining uses never materialize,
// which is one source of the degree-of-use mispredictions the paper's
// Section 3.4 discusses).
func (a *regAlloc) dest() isa.Reg {
	a.clock++
	best, bestAge := -1, int(^uint(0)>>1)
	for i := range a.info {
		ri := &a.info[i]
		if ri.reserved {
			continue
		}
		if ri.remaining == 0 && ri.age < bestAge {
			best, bestAge = i, ri.age
		}
	}
	if best < 0 {
		for i := range a.info {
			ri := &a.info[i]
			if ri.reserved {
				continue
			}
			if ri.age < bestAge {
				best, bestAge = i, ri.age
			}
		}
	}
	if best < 0 {
		panic("prog: register allocator exhausted (all reserved)")
	}
	a.info[best] = regInfo{remaining: a.sampleUses(), age: a.clock}
	return isa.IntR(best)
}

// reserve claims a specific register for structural use (loop counter,
// cursor); it will not be chosen as a destination until released.
func (a *regAlloc) reserve(r isa.Reg) {
	a.clock++
	a.info[r.Index()] = regInfo{remaining: 0, age: a.clock, reserved: true}
}

// release returns a structural register to the pool.
func (a *regAlloc) release(r isa.Reg) {
	a.info[r.Index()].reserved = false
	a.info[r.Index()].remaining = 0
}

// srcFP picks a floating-point source with planned uses, or -1 semantics
// identical to src (falls back to f0).
func (a *regAlloc) srcFP() isa.Reg {
	var total int
	for i := range a.fp {
		total += a.fp[i].remaining
	}
	if total == 0 {
		return isa.FPR(0)
	}
	x := a.rng.Intn(total)
	for i := range a.fp {
		r := a.fp[i].remaining
		if r <= 0 {
			continue
		}
		if x < r {
			a.fp[i].remaining--
			return isa.FPR(i)
		}
		x -= r
	}
	return isa.FPR(0)
}

// destFP picks a floating-point destination.
func (a *regAlloc) destFP() isa.Reg {
	a.clock++
	best, bestAge := 0, int(^uint(0)>>1)
	for i := range a.fp {
		if a.fp[i].remaining == 0 && a.fp[i].age < bestAge {
			best, bestAge = i, a.fp[i].age
		}
	}
	if bestAge == int(^uint(0)>>1) {
		for i := range a.fp {
			if a.fp[i].age < bestAge {
				best, bestAge = i, a.fp[i].age
			}
		}
	}
	a.fp[best] = regInfo{remaining: a.sampleUses(), age: a.clock}
	return isa.FPR(best)
}

// ---------------------------------------------------------------------------
// Function emission.
// ---------------------------------------------------------------------------

const frameSize = 64 // bytes; slot 0 holds the return address

// emitMain generates function 0: setup plus an infinite outer loop calling
// into the rest of the program. The simulator bounds execution by dynamic
// instruction count, so the outer loop never exits.
func (g *generator) emitMain() {
	b, p := g.b, g.prof
	b.Label(funcLabel(0))
	// Establish the stack and the invariant bases.
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: isa.SP, Imm: int64(StackBase)})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: regGB, Imm: int64(GlobalBase)})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: regTB, Imm: int64(TableBase)})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: regPtr, Imm: int64(GlobalBase)})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: regEnt, Imm: int64(g.rng.Uint64() >> 1)})
	outer := g.label("outer")
	b.Label(outer)
	// Call every top-level function, interleaved with a little compute so
	// main itself contributes to the instruction stream.
	alloc := newRegAlloc(g.rng, p.UseDist)
	g.emitCompute(alloc, g.rng.Range(p.BlockMin, p.BlockMax))
	for i := 1; i < p.Funcs; i++ {
		if g.rng.Bool(0.8) {
			b.EmitBranch(isa.Inst{Op: isa.OpCall, Dest: isa.RA}, funcLabel(i))
			g.emitCompute(alloc, g.rng.Range(2, p.BlockMin+2))
		}
	}
	b.EmitBranch(isa.Inst{Op: isa.OpJump}, outer)
}

// emitFunction generates one callable function: prologue (frame + RA spill
// + invariant setup), a body of segments, and an epilogue that restores RA
// and returns.
func (g *generator) emitFunction(idx int) {
	b, p := g.b, g.prof
	b.Label(funcLabel(idx))
	// Prologue.
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: isa.SP, Src1: isa.SP, Imm: -frameSize})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: isa.SP, Src2: isa.RA, Imm: 0})
	// Function-local view of the globals (distinct offsets give different
	// functions different working sets).
	off := int64(g.rng.Intn(1<<uint(p.FootprintLog2-3))) * 8 / 4
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: regGB, Src1: regGB, Imm: off &^ 7})
	alloc := newRegAlloc(g.rng, p.UseDist)
	// Seed the value pool so sources exist from the first compute chunk.
	for i := 0; i < 3; i++ {
		d := alloc.dest()
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: d, Imm: int64(g.rng.Intn(1 << 16))})
	}
	g.callsEmitted = 0
	segs := g.rng.Range(p.SegMin, p.SegMax)
	for s := 0; s < segs; s++ {
		g.emitSegment(alloc, 0)
	}
	// Epilogue.
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: regGB, Src1: regGB, Imm: -(off &^ 7)})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dest: isa.RA, Src1: isa.SP, Imm: 0})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: isa.SP, Src1: isa.SP, Imm: frameSize})
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RA})
}

// emitSegment emits one body segment chosen by the profile weights.
func (g *generator) emitSegment(alloc *regAlloc, loopDepth int) {
	p := g.prof
	wLoop := p.WLoop
	if loopDepth >= p.MaxLoopDepth {
		wLoop = 0
	}
	wCall := p.WCall
	if g.funcIdx >= p.Funcs-1 || loopDepth > 0 || g.callsEmitted >= 2 {
		// Calls are emitted only at segment top level and at most twice per
		// function so one outer-loop pass of main stays bounded (calls
		// inside loops multiply the callee's dynamic weight by the trip
		// count, starving the rest of the program of coverage).
		wCall = 0
	}
	switch g.rng.Weighted([]float64{p.WStraight, wLoop, p.WDiamond, wCall, p.WSwitch}) {
	case 0:
		g.emitCompute(alloc, g.rng.Range(p.BlockMin, p.BlockMax))
	case 1:
		g.emitLoop(alloc, loopDepth)
	case 2:
		g.emitDiamond(alloc, loopDepth)
	case 3:
		g.emitCall(alloc)
	case 4:
		g.emitSwitch(alloc, loopDepth)
	}
}

// emitCompute emits n instructions of straight-line work following the
// profile's operation mix.
func (g *generator) emitCompute(alloc *regAlloc, n int) {
	p := g.prof
	for i := 0; i < n; i++ {
		switch g.rng.Weighted([]float64{p.WLoad, p.WStore, p.WIAlu, p.WIMul, p.WFp}) {
		case 0:
			g.emitLoad(alloc)
		case 1:
			g.emitStore(alloc)
		case 2:
			g.emitIAlu(alloc)
		case 3:
			d := alloc.dest()
			g.b.Emit(isa.Inst{Op: isa.OpIMul, Fn: isa.FnMul, Dest: d, Src1: alloc.src(), Src2: alloc.src()})
		case 4:
			g.emitFPCluster(alloc)
		}
	}
}

// footprintMask masks an arbitrary value into the global data region.
func (g *generator) footprintMask() int64 {
	return int64((uint64(1) << uint(g.prof.FootprintLog2)) - 1)
}

// emitLoad emits one of three load flavours: a pointer-chase step (random
// walk through the heap region, mcf-style), a strided load off the
// innermost loop cursor (array traversal, prefetcher-friendly), or a
// displacement load off a pool-derived address.
func (g *generator) emitLoad(alloc *regAlloc) {
	b := g.b
	if g.rng.Bool(g.prof.PointerChase) {
		// next = GlobalBase + (load(ptr) & mask); ptr = next.
		d := alloc.dest()
		b.Emit(isa.Inst{Op: isa.OpLoad, Dest: d, Src1: regPtr, Imm: 0})
		t := alloc.dest()
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAnd, Dest: t, Src1: d, Imm: g.footprintMask() &^ 7})
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: regPtr, Src1: t, Imm: int64(GlobalBase)})
		return
	}
	if len(g.cursors) > 0 && g.rng.Bool(0.55) {
		// Strided access through the innermost loop's cursor.
		cur := g.cursors[len(g.cursors)-1]
		d := alloc.dest()
		b.Emit(isa.Inst{Op: isa.OpLoad, Dest: d, Src1: cur, Imm: int64(g.rng.Intn(8)) * 8})
		return
	}
	// addr = GB + (src & mask): data-dependent but region-bounded.
	a := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAnd, Dest: a, Src1: alloc.src(), Imm: g.footprintMask() &^ 7})
	a2 := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: a2, Src1: a, Src2: regGB})
	d := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpLoad, Dest: d, Src1: a2, Imm: int64(g.rng.Intn(8)) * 8})
}

// emitStore emits a store of a pool value, either to the frame (spill-like,
// cache-friendly) or to a data-dependent global address.
func (g *generator) emitStore(alloc *regAlloc) {
	b := g.b
	data := alloc.src()
	if g.rng.Bool(0.4) {
		// Frame store: slots 8..56 (slot 0 is the RA save).
		b.Emit(isa.Inst{Op: isa.OpStore, Src1: isa.SP, Src2: data, Imm: int64(g.rng.Range(1, frameSize/8-1)) * 8})
		return
	}
	if len(g.cursors) > 0 && g.rng.Bool(0.5) {
		cur := g.cursors[len(g.cursors)-1]
		b.Emit(isa.Inst{Op: isa.OpStore, Src1: cur, Src2: data, Imm: int64(g.rng.Intn(4)) * 8})
		return
	}
	a := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAnd, Dest: a, Src1: alloc.src(), Imm: g.footprintMask() &^ 7})
	a2 := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: a2, Src1: a, Src2: regGB})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: a2, Src2: data, Imm: 0})
}

// intFns are the ALU selectors used for generic compute.
var intFns = []isa.Fn{isa.FnAdd, isa.FnSub, isa.FnAnd, isa.FnOr, isa.FnXor, isa.FnShl, isa.FnShr, isa.FnCmpLT, isa.FnCmpEQ}

// emitIAlu emits one integer ALU instruction, register-register or
// register-immediate.
func (g *generator) emitIAlu(alloc *regAlloc) {
	fn := intFns[g.rng.Intn(len(intFns))]
	in := isa.Inst{Op: isa.OpIAlu, Fn: fn, Src1: alloc.src()}
	if fn == isa.FnShl || fn == isa.FnShr {
		in.Imm = int64(g.rng.Range(1, 12))
	} else if g.rng.Bool(0.5) {
		in.Src2 = alloc.src()
	} else {
		in.Imm = int64(g.rng.Intn(1 << 10))
	}
	in.Dest = alloc.dest()
	g.b.Emit(in)
}

// emitFPCluster emits a short floating-point chain: load, two or three FP
// ops, store — SPECint's sparse FP usage.
func (g *generator) emitFPCluster(alloc *regAlloc) {
	b := g.b
	fd := alloc.destFP()
	b.Emit(isa.Inst{Op: isa.OpLoad, Dest: fd, Src1: regGB, Imm: int64(g.rng.Intn(64)) * 8})
	n := g.rng.Range(2, 3)
	for i := 0; i < n; i++ {
		op := isa.OpFAlu
		fn := isa.FnAdd
		switch g.rng.Intn(8) {
		case 0:
			op, fn = isa.OpFDiv, isa.FnMul
		case 1, 2:
			op, fn = isa.OpFMul, isa.FnMul
		}
		b.Emit(isa.Inst{Op: op, Fn: fn, Dest: alloc.destFP(), Src1: alloc.srcFP(), Src2: alloc.srcFP()})
	}
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: regGB, Src2: alloc.srcFP(), Imm: int64(g.rng.Intn(64)) * 8})
}

// emitLoop emits a counted loop. The counter is a reserved register
// decremented each iteration; a fraction of loops draw their trip count
// from data so the exit is less predictable.
func (g *generator) emitLoop(alloc *regAlloc, loopDepth int) {
	b, p := g.b, g.prof
	// Damp nested trip counts so two-deep nests do not dominate the dynamic
	// instruction stream (and so coverage reaches the rest of the program).
	meanTrip := p.MeanTrip >> uint(2*loopDepth)
	if meanTrip < 2 {
		meanTrip = 2
	}
	ctr := alloc.dest()
	alloc.reserve(ctr)
	if g.rng.Bool(p.VarTripFrac) {
		// trip = (load & mask) + 1
		tmp := alloc.dest()
		b.Emit(isa.Inst{Op: isa.OpLoad, Dest: tmp, Src1: regGB, Imm: int64(g.rng.Intn(32)) * 8})
		mask := int64(nextPow2(meanTrip*2) - 1)
		t2 := alloc.dest()
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAnd, Dest: t2, Src1: tmp, Imm: mask})
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: ctr, Src1: t2, Imm: 1})
	} else {
		trip := g.rng.Geometric(float64(meanTrip), p.MaxTrip)
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: ctr, Imm: int64(trip)})
	}
	// Strided cursor: starts at a per-loop spot in the globals (or follows
	// the chase pointer) and advances by the stride each iteration.
	cur := alloc.dest()
	alloc.reserve(cur)
	if g.rng.Bool(0.3) {
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnMov, Dest: cur, Src1: regPtr})
	} else {
		off := int64(g.rng.Intn(1<<uint(p.FootprintLog2-4))) &^ 7
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: cur, Src1: regGB, Imm: off})
	}
	stride := int64(8 * g.rng.Range(1, 3))
	g.cursors = append(g.cursors, cur)
	top := g.label("loop")
	b.Label(top)
	// Loop body: one or two nested segments.
	nseg := g.rng.Range(1, 2)
	for i := 0; i < nseg; i++ {
		g.emitSegment(alloc, loopDepth+1)
	}
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: cur, Src1: cur, Imm: stride})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: ctr, Src1: ctr, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBranch, Fn: isa.FnCmpNE, Src1: ctr}, top)
	g.cursors = g.cursors[:len(g.cursors)-1]
	alloc.release(cur)
	alloc.release(ctr)
}

// emitDiamond emits an if/then/else. Predictable conditions compare an
// invariant-derived value (always resolves the same way or alternates);
// random conditions hash loaded data, defeating the branch predictor at the
// profile's chosen rate.
func (g *generator) emitDiamond(alloc *regAlloc, loopDepth int) {
	b, p := g.b, g.prof
	cond := alloc.dest()
	if g.rng.Bool(p.RandomCond) {
		// Data-driven: test high-order bits of the *current* entropy value
		// (available immediately, so the branch resolves quickly, like a
		// real branch on already-loaded data), then evolve the register
		// with an LCG step for the next test. Outcomes are genuinely
		// unpredictable per dynamic instance; wider masks bias the branch
		// toward not-taken.
		tmp2 := alloc.dest()
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnShr, Dest: tmp2, Src1: regEnt, Imm: 33})
		mask := []int64{1, 1, 3, 7}[g.rng.Intn(4)]
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAnd, Dest: cond, Src1: tmp2, Imm: mask})
		b.Emit(isa.Inst{Op: isa.OpIMul, Fn: isa.FnMul, Dest: regEnt, Src1: regEnt, Imm: lcgMul})
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: regEnt, Src1: regEnt, Imm: lcgAdd})
	} else {
		// Static: cond = constant — always resolves the same way.
		b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: cond, Imm: int64(g.rng.Intn(2))})
	}
	elseL, joinL := g.label("else"), g.label("join")
	b.EmitBranch(isa.Inst{Op: isa.OpBranch, Fn: isa.FnCmpEQ, Src1: cond}, elseL)
	g.emitCompute(alloc, g.rng.Range(p.BlockMin, p.BlockMax))
	if g.rng.Bool(0.35) && loopDepth < p.MaxLoopDepth {
		g.emitSegment(alloc, loopDepth)
	}
	b.EmitBranch(isa.Inst{Op: isa.OpJump}, joinL)
	b.Label(elseL)
	g.emitCompute(alloc, g.rng.Range(p.BlockMin, p.BlockMax))
	b.Label(joinL)
}

// emitCall emits a call to a strictly higher-indexed function (the static
// call graph is a DAG, so recursion and unbounded stacks are impossible).
func (g *generator) emitCall(alloc *regAlloc) {
	g.callsEmitted++
	callee := g.funcIdx + 1 + g.rng.Intn(g.prof.Funcs-g.funcIdx-1)
	g.b.EmitBranch(isa.Inst{Op: isa.OpCall, Dest: isa.RA}, funcLabel(callee))
	// Values planned before the call may be clobbered by the callee; that
	// models caller-saved registers whose saves the generator elides and is
	// another natural source of degree-of-use variation.
	g.emitCompute(alloc, g.rng.Range(1, 4))
}

// emitSwitch emits an indirect jump through a freshly allocated jump table
// (perlbmk-style dispatch), exercising the cascading indirect predictor.
func (g *generator) emitSwitch(alloc *regAlloc, loopDepth int) {
	b, p := g.b, g.prof
	ways := p.SwitchWays
	// idx = (load & (ways-1)) << 3; target = load(TB + tableOff + idx)
	v := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpLoad, Dest: v, Src1: regPtr, Imm: int64(g.rng.Intn(8)) * 8})
	i1 := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAnd, Dest: i1, Src1: v, Imm: int64(ways - 1)})
	i2 := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnShl, Dest: i2, Src1: i1, Imm: 3})
	a := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: a, Src1: i2, Src2: regTB, Imm: 0})
	t := alloc.dest()
	b.Emit(isa.Inst{Op: isa.OpLoad, Dest: t, Src1: a, Imm: int64(g.tableOff)})
	b.Emit(isa.Inst{Op: isa.OpIndirect, Src1: t})
	joinL := g.label("swjoin")
	caseLabels := make([]string, ways)
	for w := 0; w < ways; w++ {
		caseLabels[w] = g.label("case")
	}
	for w := 0; w < ways; w++ {
		b.Label(caseLabels[w])
		g.emitCompute(alloc, g.rng.Range(2, p.BlockMax/2+2))
		if w != ways-1 {
			b.EmitBranch(isa.Inst{Op: isa.OpJump}, joinL)
		}
	}
	b.Label(joinL)
	for w := 0; w < ways; w++ {
		b.DataLabel(TableBase+g.tableOff+uint64(w)*8, caseLabels[w])
	}
	g.tableOff += uint64(ways) * 8
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
