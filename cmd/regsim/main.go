// Command regsim runs a single register-caching simulation with full
// control over the machine configuration and prints the run summary.
// Simulations route through a sim.Runner, so -bench all executes the
// suite on the bounded worker pool (-workers), and -store replays points
// an earlier invocation finished.
//
// Observability: -json writes a schema-versioned machine-readable results
// file, -trace captures a Chrome trace_event pipeline timeline (open in
// chrome://tracing or https://ui.perfetto.dev), -cachelog streams every
// register cache event as NDJSON for offline distribution analysis, and
// -http serves expvar metrics plus pprof profiles while the run executes.
//
// The machine is one -scheme SPEC in the compact grammar the daemon,
// client and explore engine share (sim.ParseSchemeSpec): mono[:lat],
// use|lru|nb|port:ExW[:index], twolevel:L1[:l2lat], plus the :oracle,
// :bN (backing latency) and :pN (read ports) modifiers.
//
// Examples:
//
//	regsim -bench gzip -n 300000
//	regsim -bench mcf -scheme mono:3
//	regsim -bench gcc -scheme lru:32x4:preg
//	regsim -bench vpr -scheme twolevel:96
//	regsim -bench mcf -scheme use:16x1:p1 -threads 4
//	regsim -bench bzip2 -lifetimes
//	regsim -bench all -workers 4 -json out.json
//	regsim -bench gzip -n 50000 -trace timeline.json -cachelog cache.ndjson
//	regsim -bench all -http :6060
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"regcache/cmd/internal/cli"
	"regcache/internal/obs"
	"regcache/internal/pipeline"
	"regcache/internal/prog"
	"regcache/internal/sim"
)

func main() {
	var (
		bench     = flag.String("bench", "gzip", "benchmark name ("+strings.Join(prog.ProfileNames(), ",")+") or 'all'")
		n         = flag.Uint64("n", 200_000, "instructions to simulate per benchmark")
		runOpts   = cli.BindRunOptions(flag.CommandLine)
		runFlags  = cli.BindRunner(flag.CommandLine)
		spec      = flag.String("scheme", "use:64x2:filtered", "register storage scheme spec, e.g. mono:3, lru:32x4:preg, twolevel:96:3, use:64x2:p2:oracle")
		life      = flag.Bool("lifetimes", false, "report register lifetime phases and live-count distributions")
		verbose   = flag.Bool("v", false, "print detailed cache statistics")
		jsonOut   = flag.String("json", "", "write machine-readable results to this file")
		tracePath = flag.String("trace", "", "write a Chrome trace_event pipeline timeline to this file (single benchmark only)")
		cacheLog  = flag.String("cachelog", "", "write an NDJSON register cache event log to this file (single benchmark only)")
	)
	flag.Parse()

	opts := runOpts.Options(*n)
	opts.TrackLifetimes, opts.TrackLive = *life, *life
	s, err := sim.ParseSchemeSpec(*spec)
	if err == nil {
		err = sim.ValidatePoint(s, opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "regsim: %v\n", err)
		os.Exit(2)
	}

	benches := []string{*bench}
	if *bench == "all" {
		benches = prog.ProfileNames()
	}
	tracing := *tracePath != "" || *cacheLog != ""
	if tracing && len(benches) > 1 {
		fmt.Fprintln(os.Stderr, "-trace/-cachelog require a single benchmark (trace files do not concatenate across runs)")
		os.Exit(2)
	}
	if tracing && opts.Intervals > 1 {
		fmt.Fprintln(os.Stderr, "-trace/-cachelog require a serial run (trace events do not interleave across intervals); drop -intervals")
		os.Exit(2)
	}
	r, closeRunner, err := runFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "regsim: %v\n", err)
		os.Exit(2)
	}
	direct := *life || tracing // paths that need the pipeline object itself
	if !direct {
		// Warm the pool so -bench all runs the suite in parallel; the
		// in-order printing loop below then collects memoized results.
		r.Prefetch(benches, []sim.Scheme{s}, opts)
	}
	start := time.Now()
	var records []sim.RunRecord
	exit := 0
	for _, name := range benches {
		var res pipeline.Result
		var err error
		if direct {
			// Lifetime histograms and event traces live on the pipeline
			// object, which the memoized Result cannot carry: build the
			// pipeline directly.
			res, err = runDirect(name, s, opts, *n, *tracePath, *cacheLog, *life, *verbose)
			if err == nil {
				records = append(records, sim.NewRunRecord(name, s, opts, res))
				continue
			}
		} else {
			res, err = r.Run(context.Background(), name, s, opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			exit = 2
			continue
		}
		records = append(records, sim.NewRunRecord(name, s, opts, res))
		printRun(name, res, s, *verbose)
		fmt.Println()
	}
	if *jsonOut != "" {
		f := sim.NewResultsFile("regsim", records, r, time.Since(start))
		if err := sim.WriteResults(*jsonOut, f); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exit = 2
		}
	}
	// os.Exit skips defers: close the runner here so this run's results
	// are on disk for the next invocation.
	if err := closeRunner(); err != nil {
		fmt.Fprintf(os.Stderr, "closing store: %v\n", err)
		exit = 2
	}
	os.Exit(exit)
}

// runDirect executes one benchmark on a directly constructed pipeline so
// tracers and lifetime histograms can attach, then prints the summary.
func runDirect(name string, s sim.Scheme, opts sim.Options, n uint64, tracePath, cacheLog string, life, verbose bool) (pipeline.Result, error) {
	pl, err := sim.RunPipeline(name, s, opts)
	if err != nil {
		return pipeline.Result{}, err
	}
	var tracers []obs.Tracer
	var chrome *obs.ChromeTrace
	var clog *obs.CacheLog
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return pipeline.Result{}, err
		}
		defer f.Close()
		chrome = obs.NewChromeTrace(f, true)
		tracers = append(tracers, chrome)
	}
	if cacheLog != "" {
		f, err := os.Create(cacheLog)
		if err != nil {
			return pipeline.Result{}, err
		}
		defer f.Close()
		clog = obs.NewCacheLog(f)
		tracers = append(tracers, clog)
	}
	pl.SetTracer(obs.Combine(tracers...))
	pl.RegisterMetrics(obs.Default(), "pipeline") // served when -http is set
	r := pl.Run(n)
	if chrome != nil {
		if err := chrome.Close(); err != nil {
			return pipeline.Result{}, err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s (%d uop lanes)\n", name, tracePath, chrome.Lanes())
	}
	if clog != nil {
		if err := clog.Close(); err != nil {
			return pipeline.Result{}, err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s (evict remaining-use dist: %s)\n", name, cacheLog, clog.EvictUses())
	}
	printRun(name, r, s, verbose)
	if life {
		if lt := pl.Lifetimes(); lt != nil {
			fmt.Printf("lifetime phases (median cycles): empty %d, live %d, dead %d\n",
				lt.Empty.Median(), lt.Live.Median(), lt.Dead.Median())
			alloc, liveD := lt.AllocatedDist(), lt.LiveDist()
			fmt.Printf("allocated regs: p50 %d p90 %d; live values: p50 %d p90 %d\n",
				alloc.Median(), alloc.Percentile(0.9), liveD.Median(), liveD.Percentile(0.9))
		}
	}
	fmt.Println()
	return r, nil
}

func printRun(name string, r pipeline.Result, s sim.Scheme, verbose bool) {
	fmt.Printf("== %s ==\n%s", name, r)
	for _, ts := range r.Threads {
		fmt.Printf("thread %d: retired %d, squashed %d, mispredicts %d, cache %d/%d hits, port stalls %d\n",
			ts.Thread, ts.Retired, ts.Squashed, ts.Mispredicts, ts.CacheHits, ts.CacheReads, ts.PortConflictStalls)
	}
	if r.Stats.PortConflictStalls > 0 {
		fmt.Printf("port-conflict stalls: %d\n", r.Stats.PortConflictStalls)
	}
	if verbose && s.Kind == pipeline.SchemeCache {
		fmt.Print(r.Cache.String())
		fmt.Printf("occupancy %.1f entries, entry lifetime %.1f cycles, zero-use victims %.1f%%\n",
			r.Cache.MeanOccupancy(r.Stats.Cycles), r.Cache.MeanEntryLifetime(),
			100*r.Cache.FracVictimsZeroUse())
	}
}
