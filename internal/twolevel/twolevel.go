// Package twolevel models the two-level register file of Balasubramonian
// et al. (MICRO 2001) in the optimistic variant the paper compares against
// (Section 5.5): a direct-mapped, single-cycle L1 register file backed by
// an infinite L2, four-registers-per-cycle transfer bandwidth, explicit
// L2->L1 recovery copies on misspeculation overlapped with the pipeline
// refill, and a unified integer/floating-point file.
//
// Values are moved from L1 to L2 when they are "dead": produced, with no
// renamed-but-unexecuted consumers, and with their architectural register
// reassigned. Migration runs only when the number of free L1 registers
// falls below a threshold, bounding the recovery exposure. Rename stalls
// when no L1 register is free — the dominant cost the paper observes.
//
// As one more optimistic concession (in the spirit of the paper's explicit
// list), an L1 slot is occupied from value *production* until migration or
// free, rather than from rename: on a 512-entry-ROB machine the in-flight
// unproduced destinations alone can exceed any plausible L1 capacity, and
// reserving slots at rename would gate rename permanently. Optimism here
// only strengthens the paper's conclusion that the register cache wins.
package twolevel

import "regcache/internal/core"

// Config parameterizes the two-level file.
type Config struct {
	L1Entries     int // capacity of the fast file (the paper uses cache size + 32)
	L2Latency     int // L2 access latency in cycles (Figure 12 sweep)
	CopyBandwidth int // registers per cycle between levels (4 optimistic, 2 realistic)
	FreeThreshold int // migrate when free L1 registers drop below this
	RefillSlack   int // front-end cycles available to overlap recovery copies (fetch+decode)
}

// DefaultL1Entries is the L1 capacity a zero Config.L1Entries selects.
const DefaultL1Entries = 96

func (c Config) withDefaults() Config {
	if c.L1Entries == 0 {
		c.L1Entries = DefaultL1Entries
	}
	if c.L2Latency == 0 {
		c.L2Latency = 2
	}
	if c.CopyBandwidth == 0 {
		c.CopyBandwidth = 4
	}
	if c.FreeThreshold == 0 {
		c.FreeThreshold = 12
	}
	if c.RefillSlack == 0 {
		c.RefillSlack = 6
	}
	return c
}

// File is the two-level register file state machine. The pipeline drives
// it with rename/execute/retire/squash events; the file answers whether
// rename may proceed and how long recoveries stall.
type File struct {
	cfg Config

	inL1     []bool // value resident in L1
	inL2     []bool // value resident in L2 (moved out)
	live     []bool // between Allocate and Free
	produced []bool
	remapped []bool // architectural register has been reassigned
	pending  []int  // renamed-but-unexecuted consumers

	occupied int

	// Statistics.
	Migrations      uint64
	RecoveredValues uint64
	RecoveryEvents  uint64
	RecoveryStalls  uint64 // cycles rename stalled for recovery copies
	RenameStalls    uint64 // cycles rename stalled for lack of L1 registers
	L2Reads         uint64
}

// New builds a two-level file for npregs physical registers.
func New(cfg Config, npregs int) *File {
	cfg = cfg.withDefaults()
	return &File{
		cfg:      cfg,
		inL1:     make([]bool, npregs),
		inL2:     make([]bool, npregs),
		live:     make([]bool, npregs),
		produced: make([]bool, npregs),
		remapped: make([]bool, npregs),
		pending:  make([]int, npregs),
	}
}

// CanAllocate reports whether an L1 register is available for rename. When
// false the caller stalls rename and should call NoteRenameStall.
func (f *File) CanAllocate() bool { return f.occupied < f.cfg.L1Entries }

// NoteRenameStall counts one stalled rename cycle.
func (f *File) NoteRenameStall() { f.RenameStalls++ }

// Allocate registers p at rename. The L1 slot itself is claimed when the
// value is produced (see the package comment); the caller must still have
// checked CanAllocate, which gates rename on the file having headroom.
func (f *File) Allocate(p core.PReg) {
	f.inL1[p] = false
	f.inL2[p] = false
	f.live[p] = true
	f.produced[p] = false
	f.remapped[p] = false
	f.pending[p] = 0
}

// AddConsumer records a renamed consumer of p (pending until it executes
// or is squashed).
func (f *File) AddConsumer(p core.PReg) {
	if f.live[p] {
		f.pending[p]++
	}
}

// ConsumerDone records a consumer of p executing (or being squashed before
// executing).
func (f *File) ConsumerDone(p core.PReg) {
	if f.live[p] && f.pending[p] > 0 {
		f.pending[p]--
	}
}

// Produced records p's value being written, claiming its L1 slot.
func (f *File) Produced(p core.PReg) {
	if f.live[p] && !f.produced[p] {
		f.produced[p] = true
		f.inL1[p] = true
		f.occupied++
	}
}

// Remapped records that p's architectural register has been redefined by a
// younger instruction (making p eligible for migration once its consumers
// drain). Unremapped reverses it when that younger instruction is squashed.
func (f *File) Remapped(p core.PReg)   { f.remapped[p] = true }
func (f *File) Unremapped(p core.PReg) { f.remapped[p] = false }

// Free releases p entirely (retirement free or squash of the allocating
// instruction).
func (f *File) Free(p core.PReg) {
	if !f.live[p] {
		return
	}
	if f.inL1[p] {
		f.occupied--
	}
	f.live[p] = false
	f.inL1[p] = false
	f.inL2[p] = false
}

// Tick performs up to CopyBandwidth L1->L2 migrations when free registers
// are scarce. Called once per cycle.
func (f *File) Tick() {
	free := f.cfg.L1Entries - f.occupied
	if free >= f.cfg.FreeThreshold {
		return
	}
	moved := 0
	for p := range f.inL1 {
		if moved >= f.cfg.CopyBandwidth {
			break
		}
		if f.inL1[p] && f.live[p] && f.produced[p] && f.remapped[p] && f.pending[p] == 0 {
			f.inL1[p] = false
			f.inL2[p] = true
			f.occupied--
			f.Migrations++
			moved++
		}
	}
}

// Recover handles a misspeculation: every mapping in the restored rename
// map whose value was migrated to L2 must be copied back before new
// instructions reach rename. visible lists the physical registers of the
// restored mappings. It returns the number of cycles rename must stall
// beyond the pipeline refill (copies run at CopyBandwidth per cycle after
// an L2 read latency, overlapped with RefillSlack front-end cycles).
func (f *File) Recover(visible []core.PReg) int {
	n := 0
	for _, p := range visible {
		if f.live[p] && f.inL2[p] {
			f.inL2[p] = false
			f.inL1[p] = true
			f.occupied++
			f.L2Reads++
			n++
		}
	}
	if n == 0 {
		return 0
	}
	f.RecoveryEvents++
	f.RecoveredValues += uint64(n)
	copyCycles := f.cfg.L2Latency + (n+f.cfg.CopyBandwidth-1)/f.cfg.CopyBandwidth
	stall := copyCycles - f.cfg.RefillSlack
	if stall < 0 {
		stall = 0
	}
	f.RecoveryStalls += uint64(stall)
	return stall
}
