package sim

// Invariants for the multithreaded workload plane and the backing-file
// port model. Like invariants_test.go these assert accounting identities
// and relations between runs rather than exact counter values: per-thread
// counters must reconcile with the machine totals, an unported scheme is
// the one-port machine, and enough ports never make a fill wait.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"regcache/internal/core"
	"regcache/internal/pipeline"
)

// mtInvariantInsts keeps the T=4 sweep fast; each context still retires
// thousands of instructions so the per-thread counters are non-trivial.
const mtInvariantInsts = 12_000

// mtSchemes pairs two unported schemes — the paper's design point and a
// 16-entry direct-mapped cache whose misses keep the backing file busy —
// with two port-filtered variants of the design point. Two read ports on
// an 8-wide machine is starved enough to make fills wait on real miss
// traffic.
func mtSchemes() []Scheme {
	base := UseBased(64, 2, core.IndexFilteredRR)
	return []Scheme{
		base,
		UseBased(16, 1, core.IndexFilteredRR),
		base.WithPorts(2),
		base.WithPorts(1),
	}
}

func TestMultithreadInvariants(t *testing.T) {
	r := NewRunnerWith(0, NewWorkloadCache())
	defer r.Close()
	benches := []string{"gzip", "mcf"}
	for _, threads := range []int{2, 4} {
		o := Options{Insts: mtInvariantInsts, Threads: threads}
		for _, s := range mtSchemes() {
			for _, b := range benches {
				s, b, threads := s, b, threads
				t.Run(fmt.Sprintf("t%d/%s/%s", threads, s.Name, b), func(t *testing.T) {
					res, err := r.Run(context.Background(), b, s, o)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					checkThreadInvariants(t, threads, res)
				})
			}
		}
	}
}

// checkThreadInvariants asserts the per-context counter blocks partition
// the machine totals: nothing retired, read, or stalled escapes attribution
// to exactly one hardware context.
func checkThreadInvariants(t *testing.T, threads int, res pipeline.Result) {
	t.Helper()
	if len(res.Threads) != threads {
		t.Fatalf("got %d thread blocks, want %d", len(res.Threads), threads)
	}
	var retired, fetched, reads, hits, misses, stalls uint64
	for i, ts := range res.Threads {
		if ts.Thread != i {
			t.Errorf("thread block %d labelled %d", i, ts.Thread)
		}
		if ts.Retired == 0 {
			t.Errorf("thread %d retired nothing: round-robin fetch starved a context", i)
		}
		if ts.Retired > ts.Fetched {
			t.Errorf("thread %d: Retired %d > Fetched %d", i, ts.Retired, ts.Fetched)
		}
		// Read stream, per context: every lookup hits or misses.
		if ts.CacheReads != ts.CacheHits+ts.CacheMisses {
			t.Errorf("thread %d: CacheReads %d != Hits %d + Misses %d",
				i, ts.CacheReads, ts.CacheHits, ts.CacheMisses)
		}
		retired += ts.Retired
		fetched += ts.Fetched
		reads += ts.CacheReads
		hits += ts.CacheHits
		misses += ts.CacheMisses
		stalls += ts.PortConflictStalls
	}
	if retired != res.Stats.Retired {
		t.Errorf("per-thread Retired sums to %d, machine retired %d", retired, res.Stats.Retired)
	}
	if fetched != res.Stats.Fetched {
		t.Errorf("per-thread Fetched sums to %d, machine fetched %d", fetched, res.Stats.Fetched)
	}
	if reads != res.Cache.Reads {
		t.Errorf("per-thread CacheReads sums to %d, shared cache saw %d", reads, res.Cache.Reads)
	}
	if hits != res.Cache.Hits {
		t.Errorf("per-thread CacheHits sums to %d, shared cache saw %d", hits, res.Cache.Hits)
	}
	if misses != res.Cache.Misses {
		t.Errorf("per-thread CacheMisses sums to %d, shared cache saw %d", misses, res.Cache.Misses)
	}
	if stalls != res.Stats.PortConflictStalls {
		t.Errorf("per-thread PortConflictStalls sums to %d, machine counted %d",
			stalls, res.Stats.PortConflictStalls)
	}
}

// portRelationRuns runs f over every unported scheme of mtSchemes at
// T∈{1,2,4} on gzip and mcf, handing it the unported run.
func portRelationRuns(t *testing.T, f func(t *testing.T, r *Runner, b string, s Scheme, o Options, res pipeline.Result)) {
	r := NewRunnerWith(0, NewWorkloadCache())
	defer r.Close()
	for _, threads := range []int{1, 2, 4} {
		o := Options{Insts: mtInvariantInsts, Threads: threads}
		for _, s := range mtSchemes() {
			if s.ReadPorts != 0 {
				continue
			}
			for _, b := range []string{"gzip", "mcf"} {
				t.Run(fmt.Sprintf("t%d/%s/%s", threads, s.Name, b), func(t *testing.T) {
					res, err := r.Run(context.Background(), b, s, o)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					f(t, r, b, s, o, res)
				})
			}
		}
	}
}

// TestUnportedIsOnePort: the backing file has one port model. An unported
// scheme and its WithPorts(1) twin give RunRecords that are equal in every
// field apart from the scheme's name and read_ports.
func TestUnportedIsOnePort(t *testing.T) {
	portRelationRuns(t, func(t *testing.T, r *Runner, b string, s Scheme, o Options, res pipeline.Result) {
		twin := s.WithPorts(1)
		twinRes, err := r.Run(context.Background(), b, twin, o)
		if err != nil {
			t.Fatalf("run %s: %v", twin.Name, err)
		}
		if res.Stats.PortConflictStalls == 0 && s.Cache.Entries == 16 {
			t.Errorf("%s never waited for its single backing read port", s.Name)
		}
		rec := NewRunRecord(b, s, o, res)
		twinRec := NewRunRecord(b, twin, o, twinRes)
		twinRec.Scheme.Name, twinRec.Scheme.ReadPorts = rec.Scheme.Name, rec.Scheme.ReadPorts
		got, err := json.Marshal(twinRec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s and %s differ beyond name and read_ports:\n unported %s\n one-port %s", s.Name, twin.Name, want, got)
		}
	})
}

// TestWidePortsNeverWait: an 8-wide machine requests at most two fills per
// issued uop, so 2×IssueWidth backing read ports never make a fill wait at
// the default backing latency (whose write interlock never binds) — for
// the machine and for every context.
func TestWidePortsNeverWait(t *testing.T) {
	ports := 2 * pipeline.IssueWidth
	portRelationRuns(t, func(t *testing.T, r *Runner, b string, s Scheme, o Options, _ pipeline.Result) {
		wide := s.WithPorts(ports)
		res, err := r.Run(context.Background(), b, wide, o)
		if err != nil {
			t.Fatalf("run %s: %v", wide.Name, err)
		}
		if res.Stats.PortConflictStalls != 0 {
			t.Errorf("%s charged %d port-conflict stalls", wide.Name, res.Stats.PortConflictStalls)
		}
		for _, ts := range res.Threads {
			if ts.PortConflictStalls != 0 {
				t.Errorf("%s thread %d charged %d port-conflict stalls", wide.Name, ts.Thread, ts.PortConflictStalls)
			}
		}
		if res.BackingReads == 0 {
			t.Errorf("%s never read the backing file: the relation is vacuous", wide.Name)
		}
	})
}

// TestPortStarvationStalls pins down that a starved port configuration
// actually queues: one read port under a 4-context miss stream must charge
// stall cycles, and widening the port count must not increase them.
func TestPortStarvationStalls(t *testing.T) {
	r := NewRunnerWith(0, NewWorkloadCache())
	defer r.Close()
	base := UseBased(16, 1, core.IndexFilteredRR) // tiny cache: plenty of misses
	o := Options{Insts: mtInvariantInsts, Threads: 4}
	stalls := make(map[int]uint64)
	for _, ports := range []int{1, 8} {
		res, err := r.Run(context.Background(), "mcf", base.WithPorts(ports), o)
		if err != nil {
			t.Fatalf("run p%d: %v", ports, err)
		}
		stalls[ports] = res.Stats.PortConflictStalls
	}
	if stalls[1] == 0 {
		t.Errorf("one backing read port under 4 contexts never queued a fill request")
	}
	if stalls[8] > stalls[1] {
		t.Errorf("8 ports stall more than 1 port (%d > %d)", stalls[8], stalls[1])
	}
}

// TestSingleContextPortInvariants covers the T=1 port path: stalls must
// reconcile with zero thread blocks (the machine counter stands alone) and
// the RunRecord conversion must carry them.
func TestSingleContextPortInvariants(t *testing.T) {
	r := NewRunnerWith(0, NewWorkloadCache())
	defer r.Close()
	s := UseBased(16, 1, core.IndexFilteredRR).WithPorts(1)
	res, err := r.Run(context.Background(), "mcf", s, Options{Insts: mtInvariantInsts})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Threads) != 0 {
		t.Errorf("single-context run produced %d thread blocks", len(res.Threads))
	}
	rec := NewRunRecord("mcf", s, Options{Insts: mtInvariantInsts}, res)
	if rec.PortConflictStalls != res.Stats.PortConflictStalls {
		t.Errorf("RunRecord stalls %d != pipeline stalls %d",
			rec.PortConflictStalls, res.Stats.PortConflictStalls)
	}
	if rec.Threads != 0 || len(rec.ThreadStats) != 0 {
		t.Errorf("single-context RunRecord carries thread fields: Threads=%d, %d blocks",
			rec.Threads, len(rec.ThreadStats))
	}
}
