package sim

import (
	"context"
	"testing"

	"regcache/internal/core"
	"regcache/internal/pipeline"
)

func TestSchemeConstructors(t *testing.T) {
	m := Monolithic(3)
	if m.Kind != pipeline.SchemeMonolithic || m.RFLatency != 3 || m.Name != "rf-3cyc" {
		t.Errorf("Monolithic: %+v", m)
	}
	u := UseBased(64, 2, core.IndexFilteredRR)
	if u.Cache.Insert != core.InsertUseBased || u.Cache.Replace != core.ReplaceUseBased {
		t.Errorf("UseBased: %+v", u.Cache)
	}
	l := LRU(32, 4, core.IndexRoundRobin)
	if l.Cache.Insert != core.InsertAlways || l.Cache.Ways != 4 || l.Cache.Entries != 32 {
		t.Errorf("LRU: %+v", l.Cache)
	}
	nb := NonBypass(64, 2, core.IndexPReg)
	if nb.Cache.Insert != core.InsertNonBypass || nb.Cache.Index != core.IndexPReg {
		t.Errorf("NonBypass: %+v", nb.Cache)
	}
	tl := TwoLevel(96, 2)
	if tl.Kind != pipeline.SchemeTwoLevel || tl.TwoLevel.L1Entries != 96 {
		t.Errorf("TwoLevel: %+v", tl)
	}
	wb := u.WithBacking(4)
	if wb.BackingLatency != 4 || u.BackingLatency != 0 {
		t.Error("WithBacking must copy, not mutate")
	}
}

func TestWorkloadCacheAndErrors(t *testing.T) {
	a, err := DefaultWorkloads().Program("gzip")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DefaultWorkloads().Program("gzip")
	if a != b {
		t.Error("workload cache returned different programs")
	}
	if _, err := DefaultWorkloads().Program("nonesuch"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	r := NewRunner(1)
	defer r.Close()
	if _, err := r.Run(context.Background(), "nonesuch", Monolithic(1), Options{Insts: 1000}); err == nil {
		t.Error("Run must propagate workload errors")
	}
}

func TestRunAndSuite(t *testing.T) {
	benches := []string{"gzip", "twolf"}
	r := NewRunner(2)
	defer r.Close()
	sr, err := r.RunSuite(benches, UseBased(64, 2, core.IndexFilteredRR), Options{Insts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.PerBench) != 2 {
		t.Fatalf("suite has %d results", len(sr.PerBench))
	}
	for _, b := range sr.Order {
		if ipc := sr.PerBench[b].IPC(); ipc <= 0 || ipc > 8 {
			t.Fatalf("%s: IPC %v implausible", b, ipc)
		}
	}
	if mr := sr.MeanMissRate(); mr < 0 || mr > 1 {
		t.Fatalf("miss rate %v out of range", mr)
	}
	var catSum float64
	for _, k := range []core.MissKind{core.MissFiltered, core.MissCapacity, core.MissConflict} {
		catSum += sr.MeanMissRateBy(k)
	}
	if diff := catSum - sr.MeanMissRate(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("miss categories (%v) do not sum to total (%v)", catSum, sr.MeanMissRate())
	}
}

func TestRelIPC(t *testing.T) {
	benches := []string{"gzip"}
	r := NewRunner(2)
	defer r.Close()
	a, err := r.RunSuite(benches, Monolithic(1), Options{Insts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	// Relative to itself: exactly 1.
	if rel := a.RelIPC(a); rel != 1 {
		t.Fatalf("self-relative IPC = %v, want 1", rel)
	}
	b, err := r.RunSuite(benches, Monolithic(3), Options{Insts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	// A 1-cycle file is at least as fast as a 3-cycle file.
	if rel := a.RelIPC(b); rel < 1 {
		t.Errorf("RF-1cyc vs RF-3cyc speedup = %v, want >= 1", rel)
	}
}

func TestDeterministicAcrossSuiteRuns(t *testing.T) {
	// Concurrent suite execution must not perturb results.
	s := UseBased(64, 2, core.IndexFilteredRR)
	ra, rb := NewRunner(2), NewRunner(2)
	defer ra.Close()
	defer rb.Close()
	a, _ := ra.RunSuite([]string{"gzip", "mcf"}, s, Options{Insts: 15_000})
	b, _ := rb.RunSuite([]string{"gzip", "mcf"}, s, Options{Insts: 15_000})
	for _, bench := range a.Order {
		if a.PerBench[bench].Stats.Cycles != b.PerBench[bench].Stats.Cycles {
			t.Fatalf("%s: non-deterministic cycles", bench)
		}
	}
}

func TestBenchmarkLists(t *testing.T) {
	if len(Benchmarks()) != 12 {
		t.Errorf("suite has %d benchmarks, want 12", len(Benchmarks()))
	}
	for _, q := range QuickBenchmarks() {
		if _, err := DefaultWorkloads().Program(q); err != nil {
			t.Errorf("quick benchmark %s unavailable: %v", q, err)
		}
	}
}
