// Quickstart: simulate one benchmark on the paper's proposed design — a
// 64-entry, two-way set-associative register cache with use-based insertion
// and replacement and filtered round-robin decoupled indexing — and compare
// it against the machine it replaces, a 3-cycle monolithic register file.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"regcache/internal/core"
	"regcache/internal/sim"
)

func main() {
	const bench = "gzip"
	const insts = 200_000
	r := sim.NewRunner(0)
	defer r.Close()
	ctx := context.Background()

	// The baseline: no register cache, 3-cycle monolithic register file
	// with a two-stage bypass network (Section 5.1).
	baseline, err := r.Run(ctx, bench, sim.Monolithic(3), sim.Options{Insts: insts})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's design point (Section 5.3): 64 entries, 2 ways,
	// use-based management, filtered round-robin indexing, 2-cycle
	// backing file.
	cached, err := r.Run(ctx, bench, sim.UseBased(64, 2, core.IndexFilteredRR), sim.Options{Insts: insts})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark %s, %d instructions\n\n", bench, insts)
	fmt.Printf("3-cycle register file : IPC %.3f\n", baseline.IPC())
	fmt.Printf("use-based 64x2 cache  : IPC %.3f (%+.1f%%)\n\n",
		cached.IPC(), 100*(cached.IPC()/baseline.IPC()-1))

	fmt.Printf("register cache behaviour:\n")
	fmt.Printf("  hit rate            %.1f%%\n", 100*cached.Cache.HitRate())
	fmt.Printf("  operands bypassed   %.1f%%\n", 100*cached.BypassFrac())
	fmt.Printf("  writes filtered     %.1f%%\n", 100*cached.Cache.FracWritesFiltered())
	fmt.Printf("  zero-use victims    %.1f%%\n", 100*cached.Cache.FracVictimsZeroUse())
	fmt.Printf("  use pred. accuracy  %.1f%%\n", 100*cached.UsePredAccuracy())
	fmt.Printf("  backing file reads  %.3f/cycle (single read port suffices)\n", cached.RFReadBW())
}
