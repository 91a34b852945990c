// Command experiments regenerates the paper's evaluation: every figure and
// table of Section 5, printed as text tables with the paper's claims
// alongside the measured results. EXPERIMENTS.md is written from this
// program's output.
//
// All simulations execute on one sim.Runner: a bounded worker pool with a
// memoizing result cache, so shared baselines (e.g. the 3-cycle
// monolithic file) simulate once per process no matter how many figures
// reference them.
//
// Usage:
//
//	experiments               # full suite, default budget (slow)
//	experiments -quick        # 4 benchmarks, reduced budget
//	experiments -run fig8     # one experiment
//	experiments -n 500000     # raise the per-benchmark budget
//	experiments -v            # print run-layer metrics per experiment
//	experiments -workers 4    # bound the simulation worker pool
//	experiments -json out.json  # export every simulated run, machine-readable
//	experiments -progress 5s  # heartbeat with job counts and ETA on stderr
//	experiments -http :6060   # expvar metrics + pprof while running
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"regcache/cmd/internal/cli"
	"regcache/internal/experiments"
	"regcache/internal/sim"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "run 4 representative benchmarks at a reduced budget")
		run      = flag.String("run", "", "comma-separated experiment ids (default: all; available: "+strings.Join(experiments.IDs(), ",")+")")
		n        = flag.Uint64("n", 0, "per-benchmark instruction budget override")
		verbose  = flag.Bool("v", false, "print run-layer metrics (jobs run, cache hits, wall time) per experiment")
		runFlags = cli.BindRunner(flag.CommandLine)
		jsonOut  = flag.String("json", "", "write every simulated run to this file, machine-readable")
		progress = flag.Duration("progress", 0, "print a heartbeat (jobs done, hit rate, ETA) to stderr at this interval (e.g. 5s; 0 = off)")
	)
	flag.Parse()

	// One runner serves every experiment, so a point several figures
	// share simulates once per process.
	runner, closeRunner, err := runFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	defer func() {
		// Drain queued store appends and release the writer lock so an
		// interrupted-then-rerun suite resumes from everything finished.
		if err := closeRunner(); err != nil {
			fmt.Fprintf(os.Stderr, "closing store: %v\n", err)
		}
	}()
	if *progress > 0 {
		stop := startHeartbeat(runner, *progress)
		defer stop()
	}

	opts := experiments.Options{}
	if *quick {
		opts = experiments.Quick()
	}
	if *n != 0 {
		opts.Insts = *n
	}

	ids := experiments.IDs()
	if *run != "" {
		ids = strings.Split(*run, ",")
	}
	total := time.Now()
	for _, id := range ids {
		e, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (available: %s)\n",
				id, strings.Join(experiments.IDs(), ","))
			os.Exit(2)
		}
		start := time.Now()
		before := runner.Stats()
		rep, err := e.Run(runner, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(rep)
		fmt.Printf("(%s in %.1fs)\n", e.ID, time.Since(start).Seconds())
		if *verbose {
			fmt.Printf("(run layer: %s)\n", runner.Stats().Sub(before))
		}
		fmt.Println()
	}
	if *verbose {
		st := runner.Stats()
		fmt.Printf("run layer totals: %s over %d workers, %.1fs elapsed\n",
			st, runner.Workers(), time.Since(total).Seconds())
		fmt.Printf("workload cache: %s\n", runner.Workloads().Stats())
	}
	if *jsonOut != "" {
		f := sim.NewResultsFile("experiments", sim.RunnerRecords(runner), runner, time.Since(total))
		if err := sim.WriteResults(*jsonOut, f); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d runs)\n", *jsonOut, len(f.Runs))
	}
}

// startHeartbeat periodically reports run-layer progress on stderr:
// completed and outstanding simulations, memo hit rate, and an ETA
// extrapolated from the mean simulation wall time so far spread over the
// worker pool. Returns a function that stops the ticker.
func startHeartbeat(r *sim.Runner, every time.Duration) func() {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				st := r.Stats()
				open := r.Open()
				line := fmt.Sprintf("progress: %d jobs done, %d outstanding", st.JobsRun, open)
				if lookups := st.JobsRun + st.CacheHits; lookups > 0 {
					line += fmt.Sprintf(", memo hit rate %.0f%%", 100*float64(st.CacheHits)/float64(lookups))
				}
				if st.JobsRun > 0 && open > 0 {
					perJob := st.SimWall / time.Duration(st.JobsRun)
					eta := perJob * time.Duration(open) / time.Duration(r.Workers())
					line += fmt.Sprintf(", eta ~%s", eta.Round(time.Second))
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	return func() { close(done) }
}
