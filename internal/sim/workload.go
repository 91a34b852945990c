package sim

// This file implements the shared workload layer: a process-wide cache of
// pre-decoded benchmark programs and oracle degree-of-use tables (the
// functional pre-pass behind the -oracle schemes). Both artifacts are
// immutable once built and depend only on the workload — programs on the
// benchmark name, oracle tables on (benchmark, instruction budget) — never
// on the machine configuration, so every pipeline in the process can share
// one copy instead of regenerating them per run.
//
// Construction is single-flight per key: concurrent requesters of the same
// program (the worker pool fans a suite out) block on one builder instead
// of serializing behind a global lock or duplicating the generation work.

import (
	"fmt"
	"sync"

	"regcache/internal/pipeline"
	"regcache/internal/prog"
)

// WorkloadCache memoizes generated benchmark programs and oracle tables.
// The zero value is not usable; call NewWorkloadCache. All methods are safe
// for concurrent use.
type WorkloadCache struct {
	mu      sync.Mutex
	progs   map[string]*progEntry
	oracles map[oracleKey]*oracleEntry
	ckpts   map[ckptKey]*ckptEntry
	stats   WorkloadStats
}

// oracleKey identifies one oracle pre-pass: the table contents depend on
// the program and on how far the pre-pass ran.
type oracleKey struct {
	bench string
	insts uint64
}

// ckptKey identifies one interval checkpoint set: the capture points are a
// pure function of (budget, interval count, warm-up), so the set is keyed
// by those three plus the benchmark. Every scheme shares a set: the warm
// memory image baked into each checkpoint is the one Table 1 hierarchy.
type ckptKey struct {
	bench  string
	insts  uint64
	k      int
	warmup uint64
}

// progEntry and oracleEntry are single-flight slots: the once runs the
// build, everyone else blocks on it.
type progEntry struct {
	once sync.Once
	p    *prog.Program
	err  error
}

type oracleEntry struct {
	once sync.Once
	t    *pipeline.OracleTable
	err  error
}

type ckptEntry struct {
	once sync.Once
	cks  []pipeline.Checkpoint
	err  error
}

// WorkloadStats counts what the cache did: builds are generation work
// actually performed, hits are requests served from (or joined onto) an
// existing entry.
type WorkloadStats struct {
	ProgramBuilds    uint64
	ProgramHits      uint64
	OracleBuilds     uint64
	OracleHits       uint64
	CheckpointBuilds uint64
	CheckpointHits   uint64
}

func (s WorkloadStats) String() string {
	out := fmt.Sprintf("%d programs built (%d hits), %d oracle tables built (%d hits)",
		s.ProgramBuilds, s.ProgramHits, s.OracleBuilds, s.OracleHits)
	if s.CheckpointBuilds != 0 || s.CheckpointHits != 0 {
		out += fmt.Sprintf(", %d checkpoint sets built (%d hits)", s.CheckpointBuilds, s.CheckpointHits)
	}
	return out
}

// NewWorkloadCache builds an empty workload cache.
func NewWorkloadCache() *WorkloadCache {
	return &WorkloadCache{
		progs:   make(map[string]*progEntry),
		oracles: make(map[oracleKey]*oracleEntry),
		ckpts:   make(map[ckptKey]*ckptEntry),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *WorkloadCache) Stats() WorkloadStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Program returns the named built-in benchmark, generating and decoding it
// on first request and returning the shared immutable copy thereafter.
func (c *WorkloadCache) Program(name string) (*prog.Program, error) {
	c.mu.Lock()
	e, ok := c.progs[name]
	if !ok {
		e = &progEntry{}
		c.progs[name] = e
		c.stats.ProgramBuilds++
	} else {
		c.stats.ProgramHits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		prof, ok := prog.ProfileByName(name)
		if !ok {
			e.err = fmt.Errorf("sim: unknown benchmark %q", name)
			return
		}
		e.p, e.err = prog.Generate(prof)
	})
	return e.p, e.err
}

// ThreadProgram returns hardware context tid's instruction stream for a
// multithreaded run of the named benchmark: context 0 is the benchmark
// itself (shared with single-context runs), higher contexts are the same
// profile regenerated under a context-salted seed (prog.ThreadProfile).
// Each distinct (bench, tid) builds once and is shared thereafter.
func (c *WorkloadCache) ThreadProgram(name string, tid int) (*prog.Program, error) {
	if tid <= 0 {
		return c.Program(name)
	}
	key := fmt.Sprintf("%s#t%d", name, tid)
	c.mu.Lock()
	e, ok := c.progs[key]
	if !ok {
		e = &progEntry{}
		c.progs[key] = e
		c.stats.ProgramBuilds++
	} else {
		c.stats.ProgramHits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		prof, ok := prog.ProfileByName(name)
		if !ok {
			e.err = fmt.Errorf("sim: unknown benchmark %q", name)
			return
		}
		e.p, e.err = prog.Generate(prog.ThreadProfile(prof, tid))
	})
	return e.p, e.err
}

// Oracle returns the oracle degree-of-use table for (bench, insts), running
// the functional pre-pass once per distinct budget and sharing the table
// across every oracle-scheme pipeline thereafter.
func (c *WorkloadCache) Oracle(bench string, insts uint64) (*pipeline.OracleTable, error) {
	k := oracleKey{bench: bench, insts: insts}
	c.mu.Lock()
	e, ok := c.oracles[k]
	if !ok {
		e = &oracleEntry{}
		c.oracles[k] = e
		c.stats.OracleBuilds++
	} else {
		c.stats.OracleHits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		p, err := c.Program(bench)
		if err != nil {
			e.err = err
			return
		}
		e.t = pipeline.BuildOracle(p, insts)
	})
	return e.t, e.err
}

// Checkpoints returns the interval checkpoint set for (bench, insts, k,
// warmup), running the functional capture pass once per distinct split
// and sharing the immutable set across every interval-parallel run
// thereafter (each pipeline copies the state it starts from).
func (c *WorkloadCache) Checkpoints(bench string, insts uint64, k int, warmup uint64) ([]pipeline.Checkpoint, error) {
	key := ckptKey{bench: bench, insts: insts, k: k, warmup: warmup}
	c.mu.Lock()
	e, ok := c.ckpts[key]
	if !ok {
		e = &ckptEntry{}
		c.ckpts[key] = e
		c.stats.CheckpointBuilds++
	} else {
		c.stats.CheckpointHits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		p, err := c.Program(bench)
		if err != nil {
			e.err = err
			return
		}
		e.cks = pipeline.CaptureCheckpoints(p, pipeline.CapturePoints(pipeline.IntervalStarts(insts, k), warmup))
	})
	return e.cks, e.err
}

// The process-wide workload cache, shared by every runner built with
// NewRunner and by RunPipeline.
var (
	defaultWorkloadsOnce sync.Once
	defaultWorkloads     *WorkloadCache
)

// DefaultWorkloads returns the shared process-wide workload cache.
func DefaultWorkloads() *WorkloadCache {
	defaultWorkloadsOnce.Do(func() { defaultWorkloads = NewWorkloadCache() })
	return defaultWorkloads
}
