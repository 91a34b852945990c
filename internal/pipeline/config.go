// Package pipeline implements the cycle-driven out-of-order processor model
// of Table 1: an 8-wide, deeply pipelined machine with a 128-entry issue
// window, 512-entry reorder buffer, 512 physical registers, a two-stage
// bypass network, and one of three register storage schemes — a multi-cycle
// monolithic register file, a register cache backed by a slower file, or a
// two-level register file.
//
// The model executes functionally at fetch (down predicted paths, with
// undo-log recovery) and times every mechanism the paper's evaluation
// depends on: speculative wakeup with load-hit and register-cache-miss
// replay (Alpha 21264 style), backing-file port arbitration and write
// interlocks, insertion-time bypass accounting, invalidate-on-free, and
// the 15-cycle minimum branch misprediction loop.
package pipeline

import (
	"regcache/internal/core"
	"regcache/internal/twolevel"
)

// Scheme selects the register storage organization under test.
type Scheme int

// Register storage schemes (Section 5).
const (
	SchemeMonolithic Scheme = iota // multi-cycle monolithic register file, no cache
	SchemeCache                    // register cache + backing file
	SchemeTwoLevel                 // two-level register file (Balasubramonian-style)
)

func (s Scheme) String() string {
	switch s {
	case SchemeMonolithic:
		return "monolithic"
	case SchemeCache:
		return "cache"
	case SchemeTwoLevel:
		return "two-level"
	}
	return "scheme?"
}

// The Table 1 machine. Every configuration shares it; Config varies only
// the register storage, the hardware contexts and the instrumentation.
// The bypass network has two stages (valueWindows).
const (
	// Widths.
	FetchWidth        = 8
	IssueWidth        = 8
	RetireWidth       = 8
	MaxStoresPerCycle = 2

	// Capacities.
	IQSize    = 128
	ROBSize   = 512 // partitioned evenly across hardware contexts
	NumPRegs  = 512
	LQSize    = 128
	SQSize    = 128
	FrontQCap = 96 // fetch-to-dispatch buffer

	// FrontEndDepth is the fetch-to-dispatch pipeline depth: 4 fetch + 2
	// decode + 3 rename + 2 dispatch stages.
	FrontEndDepth = 11

	// Function units.
	IntALU      = 6
	BranchUnits = 2
	IntMul      = 2
	FPALU       = 4
	FPMulDiv    = 2
	LoadUnits   = 4
	StoreUnits  = 2

	// StoreRetireDelay is the store execute-to-earliest-retirement
	// distance.
	StoreRetireDelay = 3
)

// Config selects what the paper varies on the Table 1 machine: the
// register storage scheme and its parameters, the hardware contexts, and
// instrumentation. A zero latency takes DefaultConfig's, and a zero
// CacheCfg.MaxPRegs the machine's NumPRegs.
type Config struct {
	// Hardware contexts. Threads <= 1 is the classic single-context
	// machine; Threads > 1 interleaves that many deterministic instruction
	// streams over one shared physical file, register cache, issue window,
	// and memory hierarchy, with per-context architectural spaces, ROB
	// partitions, and front-end predictors. InterleaveGranularity is the
	// round-robin fetch quantum in instructions (default 8).
	Threads               int
	InterleaveGranularity int

	// Register storage scheme.
	Scheme         Scheme
	RFLatency      int // monolithic read/write latency (baseline: 3)
	BackingLatency int // backing file latency behind a cache (default 2)
	CacheCfg       core.Config
	TwoLevelCfg    twolevel.Config

	// ReadPorts is the backing register file's read-port count (cache
	// scheme only). Fills take the ports in arrival order, and the cycles
	// they wait for one are charged as port-conflict stalls. 0 is the
	// default single port of the paper's machine (Section 5.2).
	ReadPorts int

	// OracleUses replaces the degree-of-use predictor with perfect
	// knowledge from a functional pre-pass (the paper's "perfect a priori
	// knowledge" motivation; see internal/pipeline/oracle.go).
	OracleUses bool

	// Instrumentation.
	TrackLifetimes  bool // Figure 1 phase histograms
	TrackLiveCounts bool // Figure 2 event streams (memory ~ retired insts)
}

// DefaultConfig returns the paper's design point: a use-based register
// cache behind a 2-cycle backing file.
func DefaultConfig() Config {
	return Config{
		Scheme:         SchemeCache,
		RFLatency:      3,
		BackingLatency: 2,
		CacheCfg:       core.UseBasedConfig(),
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.RFLatency == 0 {
		c.RFLatency = d.RFLatency
	}
	if c.BackingLatency == 0 {
		c.BackingLatency = d.BackingLatency
	}
	// Cache config: default the preg space to the machine's.
	if c.CacheCfg.MaxPRegs == 0 {
		c.CacheCfg.MaxPRegs = NumPRegs
	}
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.InterleaveGranularity < 1 {
		c.InterleaveGranularity = 8
	}
	return c
}

// readLatency returns the register read latency between issue and execute
// for the configured scheme.
func (c *Config) readLatency() int {
	switch c.Scheme {
	case SchemeMonolithic:
		return c.RFLatency
	case SchemeTwoLevel:
		return 1 // single-cycle direct-mapped L1 file
	default:
		return 1 // single-cycle register cache
	}
}
