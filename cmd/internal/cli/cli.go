// Package cli holds what the commands share on their command lines: the
// run-option flags regsim and regsimc submit both take, the runner that
// regsim and experiments build from -workers, -store and -http, and the
// comma-list splitter.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"regcache/internal/obs"
	"regcache/internal/sim"
	"regcache/internal/store"
)

// RunOptions holds the run-option flags -intervals, -warmup, -threads and
// -interleave. Each command declares its own instruction-budget flag.
type RunOptions struct {
	intervals, threads, interleave *int
	warmup                         *uint64
}

// BindRunOptions declares the run-option flags on fs.
func BindRunOptions(fs *flag.FlagSet) *RunOptions {
	return &RunOptions{
		intervals:  fs.Int("intervals", 0, "simulate each run as this many checkpointed parallel intervals (0 = serial)"),
		warmup:     fs.Uint64("warmup", 0, "per-interval warm-up instructions, discarded from counters (0 = default when -intervals > 1)"),
		threads:    fs.Int("threads", 0, "multithreaded workload contexts per run (0/1 = single-context)"),
		interleave: fs.Int("interleave", 0, "fetch-interleave granularity in instructions when -threads > 1 (0 = default)"),
	}
}

// Options returns the parsed run options under the instruction budget.
func (f *RunOptions) Options(insts uint64) sim.Options {
	return sim.Options{
		Insts:       insts,
		Intervals:   *f.intervals,
		WarmupInsts: *f.warmup,
		Threads:     *f.threads,
		Interleave:  *f.interleave,
	}
}

// RunnerFlags holds -workers, -store and -http, the flags of a command
// that simulates in its own process.
type RunnerFlags struct {
	workers            *int
	storeDir, httpAddr *string
}

// BindRunner declares -workers, -store and -http on fs.
func BindRunner(fs *flag.FlagSet) *RunnerFlags {
	return &RunnerFlags{
		workers:  fs.Int("workers", runtime.NumCPU(), "simulation worker pool size (must be >= 1)"),
		storeDir: fs.String("store", "", "durable result store directory; points an earlier run finished are replayed from disk instead of re-simulated"),
		httpAddr: fs.String("http", "", "serve expvar metrics and pprof on this address (e.g. :6060)"),
	}
}

// Open builds the runner the flags describe: a pool of -workers, the
// -store directory attached as its durable cache, and its metrics served
// on -http. The returned close shuts the pool down, which drains the
// queued store appends, and only then releases the store's writer lock,
// so the next run finds every finished point on disk. A command that
// leaves through os.Exit must call it first.
func (f *RunnerFlags) Open() (*sim.Runner, func() error, error) {
	if *f.workers < 1 {
		return nil, nil, fmt.Errorf("invalid -workers %d: the pool needs at least one worker", *f.workers)
	}
	r := sim.NewRunner(*f.workers)
	closeRunner := func() error { r.Close(); return nil }
	if *f.storeDir != "" {
		rs, err := sim.OpenResultStore(*f.storeDir, store.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("opening store: %w", err)
		}
		if err := r.UseStore(rs); err != nil {
			rs.Close()
			return nil, nil, fmt.Errorf("attaching store: %w", err)
		}
		closeRunner = func() error { r.Close(); return rs.Close() }
	}
	if *f.httpAddr != "" {
		dbg, err := obs.StartDebugServer(*f.httpAddr)
		if err != nil {
			closeRunner()
			return nil, nil, err
		}
		r.RegisterMetrics(obs.Default(), "runner")
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars (pprof at /debug/pprof/, metrics at /metrics)\n", dbg.Addr())
	}
	return r, closeRunner, nil
}

// SplitList splits a comma-separated flag value, dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
