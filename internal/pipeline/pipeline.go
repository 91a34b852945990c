package pipeline

import (
	"fmt"

	"regcache/internal/bpred"
	"regcache/internal/core"
	"regcache/internal/isa"
	"regcache/internal/memsys"
	"regcache/internal/obs"
	"regcache/internal/prog"
	"regcache/internal/regfile"
	"regcache/internal/stats"
	"regcache/internal/twolevel"
	"regcache/internal/usepred"
)

// fuClass indexes the function-unit pools.
type fuClass uint8

const (
	fuIALU fuClass = iota
	fuBR
	fuIMUL
	fuFALU
	fuFPMD
	fuLD
	fuST
	numFUClasses
)

// fuCap is each class's unit count (Table 1).
var fuCap = [numFUClasses]int{IntALU, BranchUnits, IntMul, FPALU, FPMulDiv, LoadUnits, StoreUnits}

func classOf(op isa.Op) fuClass {
	switch op {
	case isa.OpIAlu, isa.OpNop:
		return fuIALU
	case isa.OpBranch, isa.OpJump, isa.OpCall, isa.OpRet, isa.OpIndirect:
		return fuBR
	case isa.OpIMul:
		return fuIMUL
	case isa.OpFAlu:
		return fuFALU
	case isa.OpFMul, isa.OpFDiv:
		return fuFPMD
	case isa.OpLoad:
		return fuLD
	case isa.OpStore:
		return fuST
	}
	return fuIALU
}

// fillReq is an outstanding backing-file read serving one or more register
// cache misses on the same physical register. Waiters are seq-guarded
// references because a waiter may be squashed (and its uop recycled)
// before the fill arrives. Requests themselves are pooled (pool.go).
type fillReq struct {
	preg    core.PReg
	set     int16
	waiters []uopRef
}

// threadCtx is the per-context slice of the machine: one hardware thread's
// instruction stream, architectural register space, control-flow state, and
// reorder-buffer partition. Everything speculative that misprediction
// recovery rolls back is thread-local; the physical register file, register
// cache, issue window, memory hierarchy, and degree-of-use predictor table
// are shared across contexts (the GPU-style contention this mode models).
// A single-context pipeline is exactly one threadCtx owning the whole ROB.
type threadCtx struct {
	id   int32
	prog *prog.Program
	exec *prog.Exec

	yags *bpred.YAGS
	ind  *bpred.Indirect
	ras  *bpred.RAS
	maps *regfile.MapTable

	rob      []*uop
	robHead  int
	robCount int

	fetchStallUntil uint64
	fetchLost       bool
	lastFetchLine   uint64
	fetchRun        int // instructions fetched in the current interleave turn

	oracle     *OracleTable
	defCounter uint64 // definitions renamed on this context's speculative path
	instOffset uint64 // retired instructions before this context's checkpoint

	stats ThreadStats
}

// Pipeline is one simulated processor core bound to one or more programs
// (one per hardware context).
type Pipeline struct {
	cfg Config

	threads  []threadCtx
	fetchTC  int // context the round-robin fetch pointer rests on
	retireTC int // context retirement starts from this cycle

	upred *usepred.Predictor
	mem   *memsys.Hierarchy

	cache    *core.Cache
	backing  *regfile.BackingFile
	tlf      *twolevel.File
	freelist *regfile.FreeList
	life     *regfile.Lifetimes

	now     uint64
	seq     uint64
	readLat int

	producers []*uop
	prodPC    []uint64
	prodSig   []uint64
	archReads []int

	// iq entries are seq-guarded: uops leave the window logically at issue
	// or squash but their slots are only reclaimed by lazy compaction, and
	// a recycled uop must not be revived through its stale slot.
	iq      []uopRef
	iqCount int

	// Event-driven select (select.go): bit i of ready flags iq[i] for
	// evaluation; waiting entries park on a producer's list or in the
	// timed-wake wheel, both threaded through the nodes slab.
	ready    []uint64
	nodes    []parkNode // index 0 is the nil sentinel
	nodeFree int32      // head of the free node list
	wakeAt   []int32    // timed-wake bucket heads, indexed by cycle & wakeMask

	frontq    []*uop
	frontqBuf []*uop // backing array for frontq (reused to avoid churn)

	tlfVisible []core.PReg // recover() scratch: map-visible pregs (two-level only)

	lqCount, sqCount int
	inflightStores   []*uop // for store-to-load forward timing

	issuedNow []*uop // issued last cycle, in the register-read stage this cycle
	readBuf   []*uop // spare buffer swapped with issuedNow each cycle

	// Calendar-queue event scheduling: per-cycle buckets instead of
	// map[cycle] hashing (see wheel.go), and a PReg-indexed miss queue
	// instead of a map (at most one outstanding fill per register).
	comps *timingWheel[compEntry]
	fills *timingWheel[*fillReq]
	missQ []*fillReq

	fuUsed [numFUClasses]int

	suppressIssue bool

	// uop and fillReq pools (pool.go): free lists recycled at retire,
	// squash, and fill completion keep the steady-state loop allocation-
	// free. Stale references to recycled uops are rejected by seq.
	uopBlock []uop
	uopNext  int
	uopFree  []*uop
	fillFree []*fillReq

	// RetireHook, when set, observes every retiring uop (tracing/tests).
	RetireHook func(u *Uop)

	// tracer receives structured stage-transition and cache events when
	// non-nil; every emission site is nil-guarded so the untraced hot loop
	// pays one branch and no allocation.
	tracer obs.Tracer

	Stats Stats
}

// SetTracer attaches (or with nil detaches) a structured event tracer to
// the pipeline and its register cache. Call it before Run.
func (pl *Pipeline) SetTracer(t obs.Tracer) {
	pl.tracer = t
	if pl.cache != nil {
		pl.cache.SetTracer(t)
	}
}

// tracePipe emits one stage-transition event (callers check pl.tracer).
func (pl *Pipeline) tracePipe(u *uop, stage obs.PipeStage, cycle uint64) {
	pl.tracer.TracePipe(obs.PipeEvent{
		Cycle: cycle, Stage: stage, Seq: u.seq, PC: u.inst.PC, Op: u.inst.Op.String(),
	})
}

// RegisterMetrics publishes the pipeline's live counters (and the register
// cache's, for the cache scheme) into a metrics registry under prefix.
func (pl *Pipeline) RegisterMetrics(r *obs.Registry, prefix string) {
	pl.Stats.Register(r, prefix)
	if pl.cache != nil {
		pl.cache.Stats.Register(r, prefix+".cache")
	}
}

// threadAddr maps a context-local address into the shared memory
// hierarchy: contexts run disjoint programs, so their address spaces are
// kept disjoint by folding the context id into high bits. Context 0 is the
// identity — a single-context machine probes exactly the addresses the
// pre-refactor pipeline did (the T=1 bit-identity guarantee).
func threadAddr(tid int32, addr uint64) uint64 {
	return addr ^ uint64(uint32(tid))<<44
}

// New builds a single-context pipeline for the given program and
// configuration. Multithreaded configurations use NewMulti.
func New(cfg Config, p *prog.Program) *Pipeline {
	cfg = cfg.withDefaults()
	if cfg.Threads > 1 {
		panic(fmt.Sprintf("pipeline: New is single-context; use NewMulti for Threads=%d", cfg.Threads))
	}
	return newPipeline(cfg, []*prog.Program{p}, []*prog.Exec{prog.NewExec(p)})
}

// NewMulti builds a pipeline with one hardware context per program:
// progs[t] is context t's instruction stream. len(progs) must equal the
// configured thread count.
func NewMulti(cfg Config, progs []*prog.Program) *Pipeline {
	cfg = cfg.withDefaults()
	if len(progs) != cfg.Threads {
		panic(fmt.Sprintf("pipeline: %d programs for Threads=%d", len(progs), cfg.Threads))
	}
	execs := make([]*prog.Exec, len(progs))
	for i, p := range progs {
		execs[i] = prog.NewExec(p)
	}
	return newPipeline(cfg, progs, execs)
}

// newPipeline builds a pipeline around already-positioned functional
// executors (New starts at the program entry; NewAt starts at a checkpoint).
func newPipeline(cfg Config, progs []*prog.Program, execs []*prog.Exec) *Pipeline {
	cfg = cfg.withDefaults()
	nt := cfg.Threads
	if nt*isa.NumArchRegs+isa.NumArchRegs > NumPRegs {
		panic(fmt.Sprintf("pipeline: %d physical registers cannot back %d contexts (%d identity + rename headroom)",
			NumPRegs, nt, nt*isa.NumArchRegs))
	}
	pl := &Pipeline{
		cfg:       cfg,
		threads:   make([]threadCtx, nt),
		upred:     usepred.New(usepred.Config{}),
		mem:       memsys.New(),
		freelist:  regfile.NewFreeList(NumPRegs),
		readLat:   cfg.readLatency(),
		producers: make([]*uop, NumPRegs),
		prodPC:    make([]uint64, NumPRegs),
		prodSig:   make([]uint64, NumPRegs),
		archReads: make([]int, NumPRegs),
		frontqBuf: make([]*uop, 0, FrontQCap+8),
		comps:     newTimingWheel[compEntry](wheelHorizon, 2*IssueWidth),
		fills:     newTimingWheel[*fillReq](wheelHorizon, 4),
		missQ:     make([]*fillReq, NumPRegs),
	}
	pl.initSelect()
	if cfg.TrackLifetimes || cfg.TrackLiveCounts {
		pl.life = regfile.NewLifetimes(NumPRegs, cfg.TrackLiveCounts)
	}
	switch cfg.Scheme {
	case SchemeCache:
		pl.cache = core.New(cfg.CacheCfg)
		pl.backing = regfile.NewBackingFile(cfg.BackingLatency, NumPRegs, cfg.ReadPorts)
		pl.prewarmFillPool(192, 8)
	case SchemeTwoLevel:
		tl := cfg.TwoLevelCfg
		tl.L2Latency = max(tl.L2Latency, 1)
		pl.tlf = twolevel.New(tl, NumPRegs)
		pl.tlfVisible = make([]core.PReg, 0, len(progs)*isa.NumArchRegs)
	}
	// Each context's architectural register space occupies a dedicated
	// identity block: context t's architectural register i lives in preg
	// t*64+i. Allocate the blocks for real (cache set assignment included)
	// so reads of never-redefined architectural registers behave like any
	// other value. The freelist is FIFO from preg 0, so the blocks come out
	// in order.
	for t := 0; t < nt; t++ {
		tc := &pl.threads[t]
		tc.id = int32(t)
		tc.prog = progs[t]
		tc.exec = execs[t]
		tc.yags = bpred.NewYAGS(bpred.YAGSConfig{})
		tc.ind = bpred.NewIndirect(bpred.IndirectConfig{})
		tc.ras = bpred.NewRAS(64)
		tc.maps = regfile.NewMapTable()
		tc.rob = make([]*uop, ROBSize/nt)
		for i := 0; i < isa.NumArchRegs; i++ {
			pp, ok := pl.freelist.Alloc()
			if !ok || pp != core.PReg(t*isa.NumArchRegs+i) {
				panic("pipeline: freelist does not start at preg 0")
			}
			set := 0
			if pl.cache != nil {
				set = pl.cache.Allocate(pp, 0)
			}
			tc.maps.Redefine(isa.Reg(i+1), regfile.Mapping{PReg: pp, Set: int16(set)})
			if pl.tlf != nil {
				pl.tlf.Allocate(pp)
				pl.tlf.Produced(pp) // architected initial values exist
			}
		}
		tc.maps.Commit(tc.maps.Checkpoint())
	}
	pl.frontq = pl.frontqBuf
	return pl
}

// Lifetimes exposes the register lifetime tracker (nil unless tracking).
func (pl *Pipeline) Lifetimes() *regfile.Lifetimes { return pl.life }

// SetOracle injects a pre-built oracle degree-of-use table for context 0
// (see BuildOracle). The table must have been built from that context's
// program with an instruction budget of at least the one passed to Run;
// the sim layer's workload cache guarantees both. A context without an
// injected table builds its own lazily.
func (pl *Pipeline) SetOracle(t *OracleTable) { pl.threads[0].oracle = t }

// robTotal returns in-flight ROB occupancy across all contexts.
func (pl *Pipeline) robTotal() int {
	n := 0
	for i := range pl.threads {
		n += pl.threads[i].robCount
	}
	return n
}

// Run simulates until maxInsts instructions retire (or maxCycles elapse as
// a deadlock backstop) and returns the results.
func (pl *Pipeline) Run(maxInsts uint64) Result { return pl.RunWindow(0, maxInsts) }

// RunWindow simulates warmup+measure retired instructions and reports only
// the measured window: counters accumulated while the first warmup
// instructions retire are subtracted out of the Result. Interval pipelines
// use the warm-up to converge timing state (predictors, cache contents,
// in-flight memory behaviour) that their architectural checkpoint does not
// carry; a zero warmup takes no snapshot and is exactly Run.
func (pl *Pipeline) RunWindow(warmup, measure uint64) Result {
	return pl.RunWindowSpans(warmup, measure, nil)
}

// RunWindowSpans is RunWindow with request-scoped tracing: when sp is
// non-nil, the warm-up and measured phases each record a child span with
// their retired/cycle counts. A nil sp is the disabled path — the hooks
// sit at the two phase boundaries, never inside the cycle loop, and cost
// nothing (the alloc gate covers this).
func (pl *Pipeline) RunWindowSpans(warmup, measure uint64, sp *obs.Span) Result {
	total := warmup + measure
	if pl.cfg.OracleUses {
		// Every context retires at most the whole-machine budget, so a
		// per-context table built to total covers any interleaving.
		for i := range pl.threads {
			tc := &pl.threads[i]
			if tc.oracle == nil {
				tc.oracle = BuildOracle(tc.prog, tc.instOffset+total)
			}
		}
	}
	maxCycles := total*40 + 200_000
	var warm Result
	if warmup > 0 {
		wsp := sp.StartChild("warmup")
		for pl.Stats.Retired < warmup && pl.now < maxCycles {
			pl.Cycle()
		}
		warm = pl.counters()
		if wsp != nil {
			wsp.SetInt("retired", int64(pl.Stats.Retired))
			wsp.SetInt("cycles", int64(pl.now))
			wsp.End()
		}
	}
	msp := sp.StartChild("measured")
	for pl.Stats.Retired < total && pl.now < maxCycles {
		pl.Cycle()
	}
	if msp != nil {
		msp.SetInt("retired", int64(pl.Stats.Retired-warm.Stats.Retired))
		msp.SetInt("cycles", int64(pl.now))
		msp.End()
	}
	if pl.now >= maxCycles {
		panic(fmt.Sprintf("pipeline: deadlock suspected at cycle %d (%d retired of %d; iq=%d rob=%d freelist=%d)",
			pl.now, pl.Stats.Retired, total, pl.iqCount, pl.robTotal(), pl.freelist.Len()))
	}
	if pl.life != nil {
		pl.life.Finish(pl.now)
	}
	return stats.SubCounters(pl.counters(), warm)
}

// cycleStage is one named step of the clock cycle.
type cycleStage struct {
	name string
	run  func(*Pipeline)
}

// cycleStages is the order in which a clock cycle runs the stages. Cycle
// walks it, and so does the per-stage benchmark, so the two cannot drift
// apart. Fills and the read stage start executions, waking the consumers
// parked on them, before select: a producer that enters execution this
// cycle can feed a consumer selected this cycle through bypass stage 1.
var cycleStages = [...]cycleStage{
	{"retire", (*Pipeline).retire},
	{"fills", (*Pipeline).processFills},
	{"completions", (*Pipeline).processCompletions},
	{"read", (*Pipeline).readStage},
	{"dispatch", (*Pipeline).dispatch},
	{"issue", (*Pipeline).issue},
	{"fetch", (*Pipeline).fetch},
	{"twolevel", (*Pipeline).tickTwoLevel},
}

// Cycle advances the machine by one clock.
func (pl *Pipeline) Cycle() {
	pl.startCycle()
	for i := range cycleStages {
		cycleStages[i].run(pl)
	}
}

// startCycle advances the clock and lifts the previous cycle's issue
// suppression.
func (pl *Pipeline) startCycle() {
	pl.now++
	pl.Stats.Cycles = pl.now
	pl.suppressIssue = false
}

// tickTwoLevel advances the two-level file's copy engine by one cycle (a
// no-op for the other schemes).
func (pl *Pipeline) tickTwoLevel() {
	if pl.tlf != nil {
		pl.tlf.Tick()
	}
}
